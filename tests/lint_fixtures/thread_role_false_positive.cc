// Fixture: legal role patterns that must produce no findings — worker
// calling worker, unannotated owner code calling owner-only APIs, a
// qualified call resolving strictly past a same-named owner-only symbol,
// and a TaskRng draw.
namespace colt {

COLT_OWNER_ONLY void InstallIndexNow(int id);

COLT_WORKER_SAFE double PeekCost(int key);

COLT_WORKER_SAFE double SumCosts(int lo, int hi) {
  double total = 0.0;
  for (int key = lo; key < hi; ++key) {
    total += PeekCost(key);
  }
  return total;
}

// Unannotated code is owner code by default; owner-only calls are fine.
void OwnerLoop() {
  InstallIndexNow(3);
}

class WorkerArena {
 public:
  COLT_WORKER_SAFE static WorkerArena& Default();
};

class OwnerRegistry {
 public:
  COLT_OWNER_ONLY static OwnerRegistry& Default();
};

// The explicit qualifier binds strictly: WorkerArena::Default is
// worker-safe even though OwnerRegistry::Default shares its name.
COLT_WORKER_SAFE void TraceProbe() {
  WorkerArena::Default();
}

// TaskRng streams are the sanctioned worker randomness.
COLT_WORKER_SAFE double DrawDeterministic(unsigned long seed, int task) {
  Rng rng = ThreadPool::TaskRng(seed, task);
  return rng.NextDouble();
}

}  // namespace colt
