#include "serve/match_service.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "util/string_util.h"

namespace comx {
namespace serve {

namespace {

Status EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError(StrFormat("cannot create %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<MatchService>> MatchService::Create(
    const Instance& instance,
    const std::function<std::unique_ptr<OnlineMatcher>()>& factory,
    const ServiceOptions& options) {
  if (factory == nullptr) {
    return Status::InvalidArgument("null matcher factory");
  }
  std::unique_ptr<MatchService> service(new MatchService());
  COMX_ASSIGN_OR_RETURN(service->plan_,
                        PartitionInstance(instance, options.shards));
  service->platform_count_ = instance.PlatformCount();

  size_t threads = options.threads;
  if (threads == 0) {
    const size_t hw = std::max(1u, std::thread::hardware_concurrency());
    threads = std::min(static_cast<size_t>(options.shards), hw);
  }
  service->pool_ = std::make_unique<ThreadPool>(threads);

  service->owned_matchers_.resize(static_cast<size_t>(options.shards));
  service->shards_.reserve(static_cast<size_t>(options.shards));
  for (int32_t k = 0; k < options.shards; ++k) {
    const Instance& sub = service->plan_.instances[static_cast<size_t>(k)];
    auto& owned = service->owned_matchers_[static_cast<size_t>(k)];
    std::vector<OnlineMatcher*> matchers;
    for (int32_t p = 0; p < sub.PlatformCount(); ++p) {
      owned.push_back(factory());
      if (owned.back() == nullptr) {
        return Status::InvalidArgument("matcher factory returned null");
      }
      matchers.push_back(owned.back().get());
    }
    Shard::Options shard_options;
    shard_options.shard_id = k;
    shard_options.seed = options.seed;
    shard_options.sim = options.sim;
    shard_options.wal = options.wal;
    if (!options.wal_dir.empty()) {
      COMX_RETURN_IF_ERROR(EnsureDir(options.wal_dir));
      shard_options.wal_dir =
          StrFormat("%s/shard-%d", options.wal_dir.c_str(), k);
      COMX_RETURN_IF_ERROR(EnsureDir(shard_options.wal_dir));
    }
    auto shard = std::make_unique<Shard>();
    COMX_RETURN_IF_ERROR(
        shard->Init(sub, matchers, shard_options, service->pool_.get()));
    service->shards_.push_back(std::move(shard));
  }
  return service;
}

MatchService::~MatchService() {
  // Shards' destructors wait for their drainers; destroy them before the
  // pool so no drainer task outlives its shard.
  shards_.clear();
  pool_.reset();
}

Status MatchService::SubmitEvent(int64_t index, Shard::Callback cb) {
  if (index < 0 || index >= event_count()) {
    return Status::OutOfRange(
        StrFormat("event %lld out of range [0, %lld)",
                  static_cast<long long>(index),
                  static_cast<long long>(event_count())));
  }
  const int32_t k = plan_.shard_of_event[static_cast<size_t>(index)];
  const int64_t local = plan_.local_index_of_event[static_cast<size_t>(index)];
  return shards_[static_cast<size_t>(k)]->Submit(local, index, std::move(cb));
}

Status MatchService::SubmitAll() {
  for (int64_t i = 0; i < event_count(); ++i) {
    COMX_RETURN_IF_ERROR(SubmitEvent(i, nullptr));
  }
  return Status::OK();
}

Result<ServiceTotals> MatchService::Drain() {
  if (drained_) {
    return Status::FailedPrecondition("service already drained");
  }
  drained_ = true;
  ServiceTotals totals;
  totals.shard_results.reserve(shards_.size());
  for (auto& shard : shards_) {
    COMX_ASSIGN_OR_RETURN(SimResult result, shard->Drain());
    totals.shard_results.push_back(std::move(result));
  }
  totals.merged.per_platform.assign(static_cast<size_t>(platform_count_),
                                    PlatformMetrics{});
  for (const SimResult& r : totals.shard_results) {
    for (size_t p = 0; p < r.metrics.per_platform.size(); ++p) {
      totals.merged.per_platform[p].Merge(r.metrics.per_platform[p]);
    }
    totals.merged.logical_bytes += r.metrics.logical_bytes;
    totals.merged.wall_seconds =
        std::max(totals.merged.wall_seconds, r.metrics.wall_seconds);
    totals.merged.rss_bytes = std::max(totals.merged.rss_bytes, r.metrics.rss_bytes);
  }
  totals.total_revenue = totals.merged.TotalRevenue();
  for (const PlatformMetrics& m : totals.merged.per_platform) {
    totals.completed_inner += m.completed_inner;
    totals.completed_outer += m.completed_outer;
    totals.rejected += m.rejected;
  }
  totals.assignments = totals.completed_inner + totals.completed_outer;
  return totals;
}

Status MatchService::FlushJournals() {
  Status first;
  for (auto& shard : shards_) {
    if (Status st = shard->FlushJournal(); !st.ok() && first.ok()) {
      first = st;
    }
  }
  return first;
}

std::vector<ShardSnapshot> MatchService::ShardStats() const {
  std::vector<ShardSnapshot> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->Stats());
  return stats;
}

obs::LatencySnapshot MatchService::DecisionLatency() const {
  obs::LatencySnapshot merged;
  for (const auto& shard : shards_) {
    merged.Merge(shard->latency_histogram().Snapshot());
  }
  return merged;
}

}  // namespace serve
}  // namespace comx
