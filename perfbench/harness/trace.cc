#include "harness/trace.h"

#include <fstream>

namespace perfbench {

namespace {
thread_local Tracer::Scope* current_scope = nullptr;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      name_(name) {
  if (tracer_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    id_ = tracer_->next_id_++;
  }
  outer_ = current_scope;
  parent_ = outer_ != nullptr ? outer_->id_ : 0;
  current_scope = this;
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  double duration = MicrosBetween(start_, Clock::now());
  current_scope = outer_;
  if (outer_ != nullptr) outer_->child_us_ += duration;
  tracer_->Record(name_, id_, parent_, start_, duration, child_us_);
}

void Tracer::Record(const char* name, uint64_t id, uint64_t parent,
                    Clock::time_point start, double duration_us,
                    double child_us) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanStats& stats = stats_[name];
  ++stats.count;
  stats.total_us += duration_us;
  stats.child_us += child_us;
  stats.durations_us.push_back(duration_us);
  if (kept_.size() < kMaxKeptSpans) {
    kept_.push_back({name, id, parent, MicrosBetween(epoch_, start),
                     duration_us});
  }
}

std::map<std::string, SpanStats> Tracer::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Tracer::WriteSpans(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (const SpanRecord& span : kept_) {
    out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"start_us\":" << span.start_us
        << ",\"dur_us\":" << span.duration_us << "}\n";
  }
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.clear();
  kept_.clear();
}

TimingLogFile::TimingLogFile(std::unique_ptr<cypher::storage::LogFile> base,
                             Tracer* tracer)
    : base_(std::move(base)), tracer_(tracer) {}

cypher::Status TimingLogFile::Append(const void* data, size_t size) {
  Tracer::Scope span(tracer_, "storage.append");
  cypher::Status st = base_->Append(data, size);
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.appends;
  counters_.append_bytes += size;
  return st;
}

cypher::Status TimingLogFile::Sync() {
  Tracer::Scope span(tracer_, "storage.sync");
  cypher::Status st = base_->Sync();
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.syncs;
  return st;
}

cypher::Status TimingLogFile::Truncate(uint64_t new_size) {
  Tracer::Scope span(tracer_, "storage.truncate");
  return base_->Truncate(new_size);
}

cypher::Status TimingLogFile::Replace(const void* data, size_t size) {
  Tracer::Scope span(tracer_, "storage.replace");
  cypher::Status st = base_->Replace(data, size);
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.replaces;
  counters_.replace_bytes += size;
  return st;
}

cypher::Result<std::string> TimingLogFile::ReadAll() { return base_->ReadAll(); }

uint64_t TimingLogFile::size() const { return base_->size(); }

TimingLogFile::Counters TimingLogFile::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace perfbench
