#include "common/provenance.h"

#include <cstdio>
#include <utility>

#include "common/json_util.h"

namespace colt {

namespace {

/// Section tag: "PROV" little-endian.
constexpr uint32_t kProvenanceSectionTag = 0x564F5250;

}  // namespace

const ProvenanceAttr* ProvenanceEvent::FindAttr(std::string_view key) const {
  for (const ProvenanceAttr& attr : attrs) {
    if (attr.key == key) return &attr;
  }
  return nullptr;
}

ProvenanceRecorder::EventBuilder::EventBuilder(ProvenanceRecorder* recorder,
                                               std::string_view name)
    : recorder_(recorder) {
  event_.name.assign(name);
}

ProvenanceRecorder::EventBuilder::EventBuilder(EventBuilder&& other) noexcept
    : recorder_(other.recorder_), event_(std::move(other.event_)) {
  other.recorder_ = nullptr;
}

ProvenanceRecorder::EventBuilder::~EventBuilder() {
  if (recorder_ != nullptr) recorder_->Sink(std::move(event_));
}

ProvenanceRecorder::EventBuilder& ProvenanceRecorder::EventBuilder::Index(
    int64_t id) {
  event_.index = id;
  return *this;
}

ProvenanceRecorder::EventBuilder& ProvenanceRecorder::EventBuilder::Cluster(
    int64_t id) {
  event_.cluster = id;
  return *this;
}

ProvenanceRecorder::EventBuilder& ProvenanceRecorder::EventBuilder::Attr(
    std::string_view key, int64_t value) {
  ProvenanceAttr attr;
  attr.key.assign(key);
  attr.kind = ProvenanceAttr::Kind::kInt;
  attr.int_value = value;
  event_.attrs.push_back(std::move(attr));
  return *this;
}

ProvenanceRecorder::EventBuilder& ProvenanceRecorder::EventBuilder::Attr(
    std::string_view key, double value) {
  ProvenanceAttr attr;
  attr.key.assign(key);
  attr.kind = ProvenanceAttr::Kind::kDouble;
  attr.double_value = value;
  event_.attrs.push_back(std::move(attr));
  return *this;
}

ProvenanceRecorder::EventBuilder& ProvenanceRecorder::EventBuilder::Attr(
    std::string_view key, std::string_view value) {
  ProvenanceAttr attr;
  attr.key.assign(key);
  attr.kind = ProvenanceAttr::Kind::kString;
  attr.string_value.assign(value);
  event_.attrs.push_back(std::move(attr));
  return *this;
}

ProvenanceRecorder::ProvenanceRecorder(int64_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity) {}

void ProvenanceRecorder::SetContext(int64_t epoch, int64_t query_seq) {
  epoch_ = epoch;
  query_seq_ = query_seq;
}

ProvenanceRecorder::EventBuilder ProvenanceRecorder::RecordEvent(
    std::string_view name) {
  return EventBuilder(this, name);
}

void ProvenanceRecorder::Sink(ProvenanceEvent event) {
  event.id = next_id_++;
  event.epoch = epoch_;
  event.query_seq = query_seq_;
  ++counts_[event.name];
  ring_.push_back(std::move(event));
  while (static_cast<int64_t>(ring_.size()) > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

std::vector<ProvenanceEvent> ProvenanceRecorder::Drain() {
  std::vector<ProvenanceEvent> out(std::make_move_iterator(ring_.begin()),
                                   std::make_move_iterator(ring_.end()));
  ring_.clear();
  return out;
}

std::string ProvenanceRecorder::PrometheusText() const {
  std::string out;
  out += "# TYPE colt_provenance_events_total counter\n";
  for (const auto& [name, count] : counts_) {
    out += "colt_provenance_events_total{event=";
    json::AppendString(name, &out);
    out += "} ";
    out += std::to_string(count);
    out += "\n";
  }
  out += "# TYPE colt_provenance_dropped_total counter\n";
  out += "colt_provenance_dropped_total ";
  out += std::to_string(dropped_);
  out += "\n";
  return out;
}

void ProvenanceRecorder::SaveState(BinaryWriter* writer) const {
  writer->WriteU32(kProvenanceSectionTag);
  writer->WriteI64(epoch_);
  writer->WriteI64(query_seq_);
  writer->WriteI64(next_id_);
  writer->WriteI64(dropped_);
  writer->WriteU64(counts_.size());
  for (const auto& [name, count] : counts_) {
    writer->WriteString(name);
    writer->WriteI64(count);
  }
  writer->WriteU64(ring_.size());
  for (const ProvenanceEvent& event : ring_) {
    writer->WriteI64(event.id);
    writer->WriteI64(event.epoch);
    writer->WriteI64(event.query_seq);
    writer->WriteString(event.name);
    writer->WriteI64(event.index);
    writer->WriteI64(event.cluster);
    writer->WriteU64(event.attrs.size());
    for (const ProvenanceAttr& attr : event.attrs) {
      writer->WriteString(attr.key);
      writer->WriteU32(static_cast<uint32_t>(attr.kind));
      switch (attr.kind) {
        case ProvenanceAttr::Kind::kInt:
          writer->WriteI64(attr.int_value);
          break;
        case ProvenanceAttr::Kind::kDouble:
          writer->WriteDouble(attr.double_value);
          break;
        case ProvenanceAttr::Kind::kString:
          writer->WriteString(attr.string_value);
          break;
      }
    }
  }
}

Status ProvenanceRecorder::LoadState(BinaryReader* reader) {
  COLT_RETURN_IF_ERROR(reader->ExpectTag(kProvenanceSectionTag));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&epoch_));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&query_seq_));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&next_id_));
  COLT_RETURN_IF_ERROR(reader->ReadI64(&dropped_));
  uint64_t count_entries = 0;
  COLT_RETURN_IF_ERROR(reader->ReadU64(&count_entries));
  counts_.clear();
  for (uint64_t i = 0; i < count_entries; ++i) {
    std::string name;
    int64_t count = 0;
    COLT_RETURN_IF_ERROR(reader->ReadString(&name));
    COLT_RETURN_IF_ERROR(reader->ReadI64(&count));
    counts_[std::move(name)] = count;
  }
  uint64_t event_count = 0;
  COLT_RETURN_IF_ERROR(reader->ReadU64(&event_count));
  ring_.clear();
  for (uint64_t i = 0; i < event_count; ++i) {
    ProvenanceEvent event;
    COLT_RETURN_IF_ERROR(reader->ReadI64(&event.id));
    COLT_RETURN_IF_ERROR(reader->ReadI64(&event.epoch));
    COLT_RETURN_IF_ERROR(reader->ReadI64(&event.query_seq));
    COLT_RETURN_IF_ERROR(reader->ReadString(&event.name));
    COLT_RETURN_IF_ERROR(reader->ReadI64(&event.index));
    COLT_RETURN_IF_ERROR(reader->ReadI64(&event.cluster));
    uint64_t attr_count = 0;
    COLT_RETURN_IF_ERROR(reader->ReadU64(&attr_count));
    for (uint64_t j = 0; j < attr_count; ++j) {
      ProvenanceAttr attr;
      uint32_t kind = 0;
      COLT_RETURN_IF_ERROR(reader->ReadString(&attr.key));
      COLT_RETURN_IF_ERROR(reader->ReadU32(&kind));
      if (kind > static_cast<uint32_t>(ProvenanceAttr::Kind::kString)) {
        return Status::InvalidArgument("provenance attr kind " +
                                       std::to_string(kind));
      }
      attr.kind = static_cast<ProvenanceAttr::Kind>(kind);
      switch (attr.kind) {
        case ProvenanceAttr::Kind::kInt:
          COLT_RETURN_IF_ERROR(reader->ReadI64(&attr.int_value));
          break;
        case ProvenanceAttr::Kind::kDouble:
          COLT_RETURN_IF_ERROR(reader->ReadDouble(&attr.double_value));
          break;
        case ProvenanceAttr::Kind::kString:
          COLT_RETURN_IF_ERROR(reader->ReadString(&attr.string_value));
          break;
      }
      event.attrs.push_back(std::move(attr));
    }
    ring_.push_back(std::move(event));
  }
  // A restart may carry a smaller capacity; keep the newest events.
  while (static_cast<int64_t>(ring_.size()) > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  return Status::OK();
}

std::string ProvenanceToJsonl(const std::vector<ProvenanceEvent>& events) {
  std::string out;
  for (const ProvenanceEvent& event : events) {
    out += "{\"id\":";
    json::AppendInt(event.id, &out);
    out += ",\"ep\":";
    json::AppendInt(event.epoch, &out);
    out += ",\"q\":";
    json::AppendInt(event.query_seq, &out);
    out += ",\"name\":";
    json::AppendString(event.name, &out);
    out += ",\"index\":";
    json::AppendInt(event.index, &out);
    out += ",\"cluster\":";
    json::AppendInt(event.cluster, &out);
    out += ",\"attrs\":{";
    for (size_t i = 0; i < event.attrs.size(); ++i) {
      const ProvenanceAttr& attr = event.attrs[i];
      if (i > 0) out += ",";
      json::AppendString(attr.key, &out);
      out += ":";
      switch (attr.kind) {
        case ProvenanceAttr::Kind::kInt:
          json::AppendInt(attr.int_value, &out);
          break;
        case ProvenanceAttr::Kind::kDouble:
          json::AppendDouble(attr.double_value, &out);
          break;
        case ProvenanceAttr::Kind::kString:
          json::AppendString(attr.string_value, &out);
          break;
      }
    }
    out += "}}\n";
  }
  return out;
}

Result<std::vector<ProvenanceEvent>> ProvenanceFromJsonl(
    std::string_view text) {
  std::vector<ProvenanceEvent> events;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line =
        json::StripLineEnding(text.substr(pos, end - pos));
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    const auto malformed = [&](const std::string& why) {
      return Status::InvalidArgument("provenance jsonl line " +
                                     std::to_string(line_no) + ": " + why);
    };
    json::Reader reader(line);
    if (!reader.Consume('{')) return malformed("expected object");
    ProvenanceEvent event;
    bool first = true;
    while (!reader.Consume('}')) {
      if (!first && !reader.Consume(',')) return malformed("expected ','");
      first = false;
      std::string key;
      if (!reader.ReadString(&key) || !reader.Consume(':')) {
        return malformed("expected key");
      }
      bool ok = true;
      if (key == "id") {
        ok = reader.ReadInt(&event.id);
      } else if (key == "ep") {
        ok = reader.ReadInt(&event.epoch);
      } else if (key == "q") {
        ok = reader.ReadInt(&event.query_seq);
      } else if (key == "name") {
        ok = reader.ReadString(&event.name);
      } else if (key == "index") {
        ok = reader.ReadInt(&event.index);
      } else if (key == "cluster") {
        ok = reader.ReadInt(&event.cluster);
      } else if (key == "attrs") {
        if (!reader.Consume('{')) return malformed("bad attrs");
        if (!reader.Consume('}')) {
          while (true) {
            ProvenanceAttr attr;
            if (!reader.ReadString(&attr.key) || !reader.Consume(':')) {
              return malformed("bad attr key");
            }
            // An integer token is an int attr (the writer emits int attrs
            // without a fractional part or exponent); any other number is
            // a double attr.
            json::Reader int_reader = reader;
            if (reader.ReadString(&attr.string_value)) {
              attr.kind = ProvenanceAttr::Kind::kString;
            } else if (int_reader.ReadInt(&attr.int_value)) {
              attr.kind = ProvenanceAttr::Kind::kInt;
              reader = int_reader;
            } else if (reader.ReadDouble(&attr.double_value)) {
              attr.kind = ProvenanceAttr::Kind::kDouble;
            } else {
              return malformed("bad attr value");
            }
            event.attrs.push_back(std::move(attr));
            if (reader.Consume('}')) break;
            if (!reader.Consume(',')) return malformed("bad attrs");
          }
        }
      } else {
        return malformed("unknown key '" + key + "'");
      }
      if (!ok) return malformed("bad value for '" + key + "'");
    }
    if (!reader.AtEnd()) return malformed("trailing characters");
    if (event.name.empty()) return malformed("missing name");
    events.push_back(std::move(event));
  }
  return events;
}

std::vector<ProvenanceEvent> BuildIndexTimeline(
    const std::vector<ProvenanceEvent>& events, int64_t index) {
  std::vector<ProvenanceEvent> out;
  for (const ProvenanceEvent& event : events) {
    if (event.index == index) out.push_back(event);
  }
  return out;
}

IndexEpochState ExplainIndexAtEpoch(const std::vector<ProvenanceEvent>& events,
                                    int64_t index, int64_t epoch) {
  IndexEpochState state;
  for (const ProvenanceEvent& event : events) {
    if (event.index != index || event.epoch > epoch) continue;
    if (event.name == "scheduler.install" || event.name == "scheduler.drop") {
      state.materialized = event.name == "scheduler.install";
      state.last_action = event.name;
      state.last_action_id = event.id;
      state.last_action_epoch = event.epoch;
      const ProvenanceAttr* cause = event.FindAttr("cause");
      state.last_cause = cause != nullptr ? cause->string_value : "";
    } else if (event.name == "self_organizer.hot_promote") {
      state.hot = true;
    } else if (event.name == "self_organizer.hot_demote") {
      state.hot = false;
    } else if (event.name == "self_organizer.schedule_install" ||
               event.name == "self_organizer.schedule_drop") {
      const ProvenanceAttr* nb = event.FindAttr("net_benefit");
      if (nb != nullptr) {
        state.last_net_benefit = nb->kind == ProvenanceAttr::Kind::kDouble
                                     ? nb->double_value
                                     : static_cast<double>(nb->int_value);
      }
    }
  }
  return state;
}

std::string FormatProvenanceEvent(const ProvenanceEvent& event) {
  char head[96];
  std::snprintf(head, sizeof(head), "#%lld ep%lld q%lld %s",
                static_cast<long long>(event.id),
                static_cast<long long>(event.epoch),
                static_cast<long long>(event.query_seq), event.name.c_str());
  std::string out = head;
  if (event.index >= 0) {
    out += " index=";
    out += std::to_string(event.index);
  }
  if (event.cluster >= 0) {
    out += " cluster=";
    out += std::to_string(event.cluster);
  }
  for (const ProvenanceAttr& attr : event.attrs) {
    out += " ";
    out += attr.key;
    out += "=";
    switch (attr.kind) {
      case ProvenanceAttr::Kind::kInt:
        out += std::to_string(attr.int_value);
        break;
      case ProvenanceAttr::Kind::kDouble: {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%g", attr.double_value);
        out += buf;
        break;
      }
      case ProvenanceAttr::Kind::kString:
        out += attr.string_value;
        break;
    }
  }
  return out;
}

std::string FormatIndexTimeline(const std::vector<ProvenanceEvent>& timeline) {
  std::string out;
  for (const ProvenanceEvent& event : timeline) {
    out += FormatProvenanceEvent(event);
    out += "\n";
  }
  return out;
}

}  // namespace colt
