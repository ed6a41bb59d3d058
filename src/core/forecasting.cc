#include "core/forecasting.h"

#include <algorithm>
#include <vector>

namespace colt {

namespace {

/// Sum over j = 1..depth of PredBenefit_j for a history of `epochs`
/// epochs whose i-th most recent benefit is `epoch(i)`. PredBenefit_j's
/// window sum is PredBenefit_{j-1}'s plus one more epoch, added in
/// PredBenefitFrom's order, so one running sum reproduces every window sum
/// bit for bit and the total costs O(h) instead of O(h^2).
template <typename EpochAt>
double SumOfForecasts(int depth, int epochs, EpochAt epoch) {
  double total = 0.0;
  double sum = 0.0;
  for (int j = 1; j <= depth; ++j) {
    if (j <= epochs) sum += epoch(j - 1);
    total += sum / j;
  }
  return total;
}

}  // namespace

void BenefitForecaster::RecordEpoch(IndexId index, double benefit) {
  auto& hist = history_[index];
  hist.push_front(benefit);
  while (static_cast<int>(hist.size()) > history_depth_) hist.pop_back();
}

double BenefitForecaster::PredBenefitFrom(const std::deque<double>& hist,
                                          int j) const {
  if (hist.empty()) return 0.0;
  const int window = std::min<int>(j, static_cast<int>(hist.size()));
  double sum = 0.0;
  for (int i = 0; i < window; ++i) sum += hist[i];
  // Epochs before the index entered the system's memory count as zero
  // benefit — the index genuinely provided none. This makes the forecast
  // ramp up over the first epochs after a shift (and is what makes COLT
  // resist short noise bursts, paper §6.2 / Fig. 6).
  return sum / j;
}

double BenefitForecaster::PredBenefit(IndexId index, int j) const {
  auto it = history_.find(index);
  if (it == history_.end()) return 0.0;
  return PredBenefitFrom(it->second, j);
}

double BenefitForecaster::TotalPredictedBenefit(IndexId index) const {
  auto it = history_.find(index);
  if (it == history_.end()) return 0.0;
  const std::deque<double>& hist = it->second;
  return SumOfForecasts(history_depth_, static_cast<int>(hist.size()),
                        [&](int i) { return hist[i]; });
}

double BenefitForecaster::TotalPredictedBenefitWithLatest(
    IndexId index, double optimistic_latest) const {
  // The history with its latest epoch replaced; with no history, that
  // epoch alone.
  auto it = history_.find(index);
  const std::deque<double>* hist =
      it == history_.end() ? nullptr : &it->second;
  const int epochs =
      std::max(1, hist == nullptr ? 0 : static_cast<int>(hist->size()));
  return SumOfForecasts(history_depth_, epochs, [&](int i) {
    return i == 0 ? optimistic_latest : (*hist)[i];
  });
}

int BenefitForecaster::HistoryLength(IndexId index) const {
  auto it = history_.find(index);
  return it == history_.end() ? 0 : static_cast<int>(it->second.size());
}

void BenefitForecaster::Erase(IndexId index) { history_.erase(index); }

const std::deque<double>* BenefitForecaster::History(IndexId index) const {
  auto it = history_.find(index);
  return it == history_.end() ? nullptr : &it->second;
}

namespace {
constexpr uint32_t kForecastSectionTag = 0x54534346;  // "FCST"
}  // namespace

void BenefitForecaster::SaveState(BinaryWriter* writer) const {
  writer->WriteU32(kForecastSectionTag);
  std::vector<IndexId> ids;
  ids.reserve(history_.size());
  for (const auto& [id, hist] : history_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  writer->WriteU64(ids.size());
  for (IndexId id : ids) {
    const std::deque<double>& hist = history_.at(id);
    writer->WriteI64(id);
    writer->WriteU64(hist.size());
    for (double benefit : hist) writer->WriteDouble(benefit);
  }
}

Status BenefitForecaster::LoadState(BinaryReader* reader) {
  COLT_RETURN_IF_ERROR(reader->ExpectTag(kForecastSectionTag));
  uint64_t index_count = 0;
  COLT_RETURN_IF_ERROR(reader->ReadU64(&index_count));
  std::unordered_map<IndexId, std::deque<double>> history;
  for (uint64_t i = 0; i < index_count; ++i) {
    int64_t id = 0;
    COLT_RETURN_IF_ERROR(reader->ReadI64(&id));
    uint64_t length = 0;
    COLT_RETURN_IF_ERROR(reader->ReadU64(&length));
    std::deque<double> hist;
    for (uint64_t j = 0; j < length; ++j) {
      double benefit = 0.0;
      COLT_RETURN_IF_ERROR(reader->ReadDouble(&benefit));
      hist.push_back(benefit);
    }
    history.emplace(static_cast<IndexId>(id), std::move(hist));
  }
  history_ = std::move(history);
  return Status::OK();
}

}  // namespace colt
