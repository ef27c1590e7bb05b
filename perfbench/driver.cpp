// Benchmark driver: runs one workload through gpuksel's public serve, knn and
// simt APIs, checks every answer outside the request's timed span, and writes
// the raw samples as one JSON document that run.py reduces into metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --out <raw.json> [--chrome-trace <trace.json>]
//
// Two clocks.  Host: steady_clock wall time and getrusage CPU time of this
// process, i.e. what the simulator costs on the machine it runs on.  Modeled:
// the cost model's C2075 seconds, a pure function of the seed's inputs.
//
// With --trace 1 the timed window is split in two: a traced half that times
// every call into a layer from this file, reads the simt::Profiler launch
// records of every device, and keeps spans in memory until exit; then an
// untraced half, the reference for the tracing overhead.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "knn/dataset.hpp"
#include "knn/distance.hpp"
#include "knn/ivf.hpp"
#include "knn/knn.hpp"
#include "knn/rbc.hpp"
#include "serve/scheduler.hpp"
#include "serve/sharded_knn.hpp"
#include "simt/lane_vec.hpp"
#include "simt/profiler.hpp"
#include "util/rng.hpp"

namespace {

using gpuksel::Neighbor;
using gpuksel::Rng;
using gpuksel::knn::Dataset;
using gpuksel::knn::RandomBallCover;
using gpuksel::serve::IndexType;
using gpuksel::serve::RequestStatus;
using gpuksel::serve::Scheduler;
using gpuksel::serve::ShardedKnn;
using gpuksel::serve::ShardedKnnOptions;
using gpuksel::serve::ShardedResult;
using gpuksel::simt::Device;
using gpuksel::simt::KernelMetrics;
using gpuksel::simt::KernelRecord;
using gpuksel::simt::Profiler;
using Clock = std::chrono::steady_clock;
using Answer = std::vector<std::vector<Neighbor>>;

double since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double>(t - origin).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

Dataset slice_rows(const Dataset& all, std::uint32_t first, std::uint32_t count) {
  Dataset out;
  out.dim = all.dim;
  out.count = count;
  out.values.assign(all.values.begin() + std::size_t{first} * all.dim,
                    all.values.begin() + std::size_t{first + count} * all.dim);
  return out;
}

/// Exact host top-k by (dist, id) over explicit rows.
std::vector<Neighbor> exact_top_k(const float* query, std::uint32_t dim,
                                  const std::vector<const float*>& rows,
                                  const std::vector<std::uint32_t>& ids,
                                  std::uint32_t k) {
  std::vector<Neighbor> all(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    all[i] = {gpuksel::knn::squared_euclidean(query, rows[i], dim), ids[i]};
  }
  const std::size_t keep = std::min<std::size_t>(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep),
                    all.end());
  all.resize(keep);
  return all;
}

// --- digest of the modeled clock -------------------------------------------

/// FNV-1a over every KernelMetrics counter and the bit pattern of every
/// modeled second of the digest prefix: a simulator-only change must leave
/// it byte-identical.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const KernelMetrics& m) {
    for (std::uint64_t c : {m.instructions, m.useful_lane_slots,
                            m.global_load_tx, m.global_store_tx,
                            m.global_requests, m.shared_requests,
                            m.shared_conflict_replays}) {
      add(c);
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << h_;
    return os.str();
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- spans ------------------------------------------------------------------

/// In-memory span log, written as a Chrome trace at exit.  Track names place
/// a span on a row: "client", "scheduler", "shard0", ..., "merge", "device".
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int add(std::string name, std::string track, double start_s, double end_s,
          int parent, std::uint64_t request) {
    spans_.push_back({std::move(name), std::move(track), start_s, end_s,
                      parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  int add(std::string name, std::string track, Clock::time_point a,
          Clock::time_point b, int parent, std::uint64_t request) {
    return add(std::move(name), std::move(track), since(origin_, a),
               since(origin_, b), parent, request);
  }
  /// Ends a span opened before its children were known.
  void close(int span, Clock::time_point end) {
    spans_[static_cast<std::size_t>(span)].end_s = since(origin_, end);
  }

  void write_chrome(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write " + path);
    std::map<std::string, int> tids;
    for (const Span& s : spans_) tids.emplace(s.track, 0);
    int next = 1;
    for (auto& [track, tid] : tids) tid = next++;
    os << std::setprecision(15) << "{\"traceEvents\":[";
    bool first = true;
    for (const auto& [track, tid] : tids) {
      os << (first ? "" : ",") << "\n{\"ph\":\"M\",\"name\":\"thread_name\","
         << "\"pid\":1,\"tid\":" << tid << ",\"args\":{\"name\":\"" << track
         << "\"}}";
      first = false;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << tids.at(s.track)
         << ",\"name\":\"" << s.name << "\",\"ts\":" << s.start_s * 1e6
         << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
         << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
         << ",\"request\":" << s.request << "}}";
    }
    os << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    std::string track;
    double start_s;
    double end_s;
    int parent;
    std::uint64_t request;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- per-layer accounting (traced loop only) ---------------------------------

struct KernelAgg {
  std::uint64_t launches = 0;
  std::uint64_t warps = 0;
  double wall_s = 0.0;
  double modeled_s = 0.0;
  KernelMetrics total;
};

void fold(KernelAgg& agg, const KernelRecord& r) {
  agg.launches += 1;
  agg.warps += r.num_warps;
  agg.wall_s += r.wall_seconds;
  agg.modeled_s += r.kernel_seconds;
  agg.total += r.total;
}

struct Layers {
  std::map<std::string, KernelAgg> kernels;  ///< by kernel name, no prefix
  std::uint64_t requests = 0;
  /// The same totals over the loop's first `head_limit` requests only: a
  /// fixed part of the seed's request sequence, so their counters and modeled
  /// seconds repeat exactly for a seed however many requests the host ran.
  std::map<std::string, KernelAgg> head_kernels;
  std::uint64_t head_limit = 0, head_requests = 0;
  std::vector<double> launches, launch_wall_s, merge_wall_s, straggler,
      modeled_imbalance, host_gap_s, queue_wait_s, service_s, worker_threads;
  std::uint64_t retries = 0, exclusions = 0, degraded = 0;
  int threads_peak = 0;
  std::uint64_t pool_requested = 0, pool_served = 0, h2d_bytes = 0;
  std::uint64_t compactions = 0, delta_bytes = 0;
  std::vector<double> compaction_stall_s, delta_rows_at_search;
  double ivf_train_s = 0.0;
};

/// One device's launch records for one request, named by its track.
struct Track {
  std::string name;
  std::vector<KernelRecord> records;
  bool merge = false;
};

/// Folds one request's launch records into the layer totals and, with a
/// tracer, lays each track's launches end to end from `start` (records carry
/// durations, not start times).  Returns the critical-path launch wall: the
/// slowest shard track plus the merge track.
double absorb_request(Layers& layers, const std::vector<Track>& tracks,
                      Tracer* tracer, int parent, std::uint64_t request,
                      double start_s) {
  double launches = 0, total = 0, merge = 0, slowest = 0, shard_sum = 0;
  int shard_tracks = 0;
  const bool head = layers.requests < layers.head_limit;
  for (const Track& t : tracks) {
    double wall = 0.0;
    for (const KernelRecord& r : t.records) {
      const std::string base = r.kernel.substr(r.kernel.rfind('/') + 1);
      fold(layers.kernels[base], r);
      if (head) fold(layers.head_kernels[base], r);
      layers.worker_threads.push_back(r.worker_threads);
      if (tracer != nullptr) {
        tracer->add(base, t.name, start_s + wall, start_s + wall + r.wall_seconds,
                    parent, request);
      }
      wall += r.wall_seconds;
      launches += 1;
    }
    total += wall;
    if (t.merge) {
      merge += wall;
    } else {
      slowest = std::max(slowest, wall);
      shard_sum += wall;
      shard_tracks += 1;
    }
  }
  layers.requests += 1;
  layers.head_requests += head ? 1 : 0;
  layers.launches.push_back(launches);
  layers.launch_wall_s.push_back(total);
  layers.merge_wall_s.push_back(merge);
  if (shard_tracks > 0 && shard_sum > 0) {
    layers.straggler.push_back(slowest / (shard_sum / shard_tracks));
  }
  return slowest + merge;
}

// --- samples ------------------------------------------------------------------

/// One attempted request.  Times are seconds from the loop's start.
struct Sample {
  double due = 0, submit = 0, done = 0;
  double cpu = 0;  ///< process CPU seconds since the loop started, at `done`
  std::uint32_t queries = 0;
  std::size_t input = 0;  ///< index into the workload's query pool
  bool served = false;    ///< the engine answered (kOk)
  bool correct = false;
  double recall = 0.0;
  double modeled_s = 0.0;
  std::uint64_t instructions = 0;
  std::uint64_t stats_hash = 0;  ///< Digest of the request's device counters
  /// Kept only where the check runs after the loop (mutable_churn); elsewhere
  /// answers are checked on arrival and dropped, so memory does not grow
  /// with the number of requests a run manages.
  Answer answer;
};

/// Checks an answer against its reference and scores its recall against the
/// exact top-k (the same object on the exact workloads).  Runs between
/// requests, outside every request's latency.
void check(Sample& s, const Answer& got, const Answer& expected,
           const Answer& exact) {
  s.correct = got == expected;
  s.recall = s.correct && &expected == &exact
                 ? 1.0
                 : RandomBallCover::recall(got, exact);
}

struct Loop {
  std::vector<Sample> samples;
  double wall_s = 0.0;
  std::vector<double> lateness_s;                         ///< open loop
  std::vector<double> upsert_s, insert_s, remove_s;       ///< mutations
  std::optional<Layers> layers;                           ///< traced loop
};

struct Run {
  std::vector<double> setup_wall_s;
  std::vector<double> setup_cpu_s;
  /// [untraced], or [traced, untraced]: a traced run traces first, from the
  /// state right after set-up, so its first requests are the same as those
  /// of the untraced run of the same seed.
  std::vector<Loop> loops;
  std::string digest;
  std::size_t digest_requests = 0;
  double digest_queries = 0, digest_modeled_s = 0;
  std::vector<unsigned> executor_threads;
  double latency_limit_ms = 0;
  double lateness_bound_ms = 0;  ///< 0 = closed loop
  std::map<std::string, double> extra;
};

/// Runs `body(i)` until `seconds` have passed and at least `min_count`
/// iterations ran.
template <typename Body>
void closed_loop(double seconds, std::size_t min_count, Body&& body) {
  const auto t0 = Clock::now();
  std::size_t i = 0;
  while (i < min_count || since(t0, Clock::now()) < seconds) body(i++);
}

/// Samples the process thread count every millisecond while alive.
class ThreadSampler {
 public:
  ThreadSampler() : worker_([this] { loop(); }) {}
  ~ThreadSampler() { stop(); }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  /// Peak thread count seen, not counting the sampler itself.
  int stop() {
    if (worker_.joinable()) {
      stop_.store(true);
      worker_.join();
    }
    return peak_ - 1;
  }

 private:
  void loop() {
    while (!stop_.load()) {
      peak_ = std::max(peak_, process_threads());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::atomic<bool> stop_{false};
  int peak_ = 0;
  std::thread worker_;
};

/// Set-up is repeated and its median reported: one construction plus first
/// request is a fraction of a second, well inside the host's noise.  Cheap
/// set-ups repeat until about a second and a half has been spent on them.
bool more_setups(const std::vector<double>& done) {
  double spent = 0;
  for (double s : done) spent += s;
  return done.size() < 7 || (spent < 1.5 && done.size() < 41);
}

/// Times one set-up on both clocks: wall, and process CPU.
template <typename Body>
void time_setup(std::vector<double>& wall, std::vector<double>& cpu,
                Body&& body) {
  const double cpu0 = process_cpu_seconds();
  const auto a = Clock::now();
  body();
  wall.push_back(since(a, Clock::now()));
  cpu.push_back(process_cpu_seconds() - cpu0);
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string chrome_trace;
};

// --- serving-path workloads (Scheduler -> ShardedKnn) ------------------------

struct ServeSpec {
  ShardedKnnOptions options;
  std::uint32_t k = 0;
  bool open_loop = false;
  double rate_per_s = 0;      ///< open loop arrival rate
  std::size_t min_requests = 0;
};

/// Devices of a sharded engine: shards, then the merge device.
std::vector<Device*> devices_of(ShardedKnn& engine) {
  std::vector<Device*> out;
  for (std::uint32_t s = 0; s < engine.num_shards(); ++s) {
    out.push_back(&engine.shard(s).device());
  }
  out.push_back(&engine.merge_device());
  return out;
}

/// Per-layer instrumentation of one traced loop: a quiet profiler on every
/// serving device, a thread-count sampler, and the pool and transfer
/// counters of every device at the start.  Serving devices are tracks
/// "shard0", "shard1", ... with the last one "merge" when `sharded`, else a
/// single "device"; `extra` devices count but their launches are not read.
class LayerProbe {
 public:
  LayerProbe(std::vector<Device*> serving, bool sharded,
             std::vector<Device*> extra = {})
      : serving_(std::move(serving)), sharded_(sharded) {
    counted_ = serving_;
    counted_.insert(counted_.end(), extra.begin(), extra.end());
    for (Device* d : serving_) {
      profilers_.push_back(std::make_unique<Profiler>());
      // No timeline: records wait in memory until taken, region stats stay exact.
      profilers_.back()->set_max_spans_per_warp(0);
      d->set_profiler(profilers_.back().get());
    }
    counters(pool_requested_, pool_served_, h2d_);
  }
  ~LayerProbe() {
    for (Device* d : serving_) d->set_profiler(nullptr);
  }
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;

  [[nodiscard]] std::size_t devices() const noexcept { return serving_.size(); }
  [[nodiscard]] bool is_merge(std::size_t d) const noexcept {
    return sharded_ && d + 1 == serving_.size();
  }
  [[nodiscard]] std::string track(std::size_t d) const {
    if (!sharded_) return "device";
    return is_merge(d) ? "merge" : "shard" + std::to_string(d);
  }
  /// Every record since the last take() on device d.
  [[nodiscard]] const std::vector<KernelRecord>& records(std::size_t d) const {
    return profilers_[d]->records();
  }
  /// One track per serving device with the launches since the last call.
  std::vector<Track> take() {
    std::vector<Track> tracks;
    for (std::size_t d = 0; d < devices(); ++d) {
      tracks.push_back({track(d), profilers_[d]->records(), is_merge(d)});
      profilers_[d]->clear();
    }
    return tracks;
  }
  /// Stops sampling and charges the counter deltas of the loop to `l`.
  void finish(Layers& l) {
    l.threads_peak = sampler_.stop();
    std::uint64_t requested = 0, served = 0, h2d = 0;
    counters(requested, served, h2d);
    l.pool_requested += requested - pool_requested_;
    l.pool_served += served - pool_served_;
    l.h2d_bytes += h2d - h2d_;
  }

 private:
  void counters(std::uint64_t& requested, std::uint64_t& served,
                std::uint64_t& h2d) const {
    for (const Device* d : counted_) {
      requested += d->pool().stats().bytes_requested;
      served += d->pool().stats().bytes_served_from_pool;
      h2d += d->transfers().bytes_h2d;
    }
  }

  std::vector<Device*> serving_;
  std::vector<Device*> counted_;
  bool sharded_;
  std::vector<std::unique_ptr<Profiler>> profilers_;
  std::uint64_t pool_requested_ = 0, pool_served_ = 0, h2d_ = 0;
  ThreadSampler sampler_;  ///< last: starts once everything else is set up
};

void charge_shards(Layers& l, const ShardedResult& r) {
  double max_m = 0, sum_m = 0;
  for (const auto& s : r.shards) {
    l.retries += s.retries;
    l.exclusions += s.excluded ? 1 : 0;
    max_m = std::max(max_m, s.modeled_seconds);
    sum_m += s.modeled_seconds;
  }
  l.degraded += r.degraded ? 1 : 0;
  if (sum_m > 0) {
    l.modeled_imbalance.push_back(max_m /
                                  (sum_m / static_cast<double>(r.shards.size())));
  }
}

std::uint64_t instructions_of(const ShardedResult& r) {
  std::uint64_t n = r.merge_metrics.instructions;
  for (const auto& s : r.shards) n += s.metrics.instructions;
  return n;
}

std::uint64_t stats_hash(const ShardedResult& r) {
  Digest d;
  for (const auto& s : r.shards) {
    d.add(s.metrics);
    d.add(s.modeled_seconds);
  }
  d.add(r.merge_metrics);
  d.add(r.merge_seconds);
  d.add(r.modeled_seconds);
  return d.value();
}

/// Digest of the first `n` samples of the first loop: a fixed prefix of the
/// seed's request sequence, so it does not depend on how many requests the
/// host managed in the window.
void digest_prefix(Run& run, std::size_t n) {
  Digest digest;
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = run.loops[0].samples.at(i);
    digest.add(std::uint64_t{s.served});
    digest.add(s.stats_hash);
    if (s.served) {
      run.digest_queries += s.queries;
      run.digest_modeled_s += s.modeled_s;
    }
  }
  run.digest = digest.hex();
  run.digest_requests = n;
}

/// Splits a device's records of a whole loop into per-request groups: a
/// group starts at each launch of `first_kernel`.
std::vector<std::vector<KernelRecord>> split_requests(
    const std::vector<KernelRecord>& records, const std::string& first_kernel) {
  std::vector<std::vector<KernelRecord>> groups;
  for (const KernelRecord& r : records) {
    if (groups.empty() || r.kernel == first_kernel) groups.emplace_back();
    groups.back().push_back(r);
  }
  return groups;
}

Loop serve_loop(ShardedKnn& engine, Scheduler& sched, const ServeSpec& spec,
                const std::vector<Dataset>& pool,
                const std::vector<Answer>& expected,
                const std::vector<Answer>& exact, double seconds,
                std::size_t min_requests, std::uint64_t seed, Tracer* tracer,
                Clock::time_point trace_origin) {
  Loop loop;
  std::optional<LayerProbe> probe;
  if (tracer != nullptr) {
    loop.layers.emplace();
    loop.layers->head_limit = pool.size();
    probe.emplace(devices_of(engine), true);
  }
  auto& samples = loop.samples;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  const double origin_s = since(trace_origin, t0);
  auto finish = [&](Sample& s, gpuksel::serve::ServeResponse&& resp) {
    s.served = resp.status == RequestStatus::kOk && resp.served;
    s.modeled_s = resp.result.modeled_seconds;
    s.instructions = instructions_of(resp.result);
    s.stats_hash = stats_hash(resp.result);
    if (tracer != nullptr && resp.served) charge_shards(*loop.layers, resp.result);
    if (s.served) {
      check(s, resp.result.neighbors, expected[s.input], exact[s.input]);
    }
  };
  if (!spec.open_loop) {
    closed_loop(seconds, min_requests, [&](std::size_t i) {
      Sample s;
      s.input = i % pool.size();
      s.queries = pool[s.input].count;
      const auto a = Clock::now();
      auto resp = sched.submit(pool[s.input], spec.k).get();
      const auto b = Clock::now();
      s.cpu = process_cpu_seconds() - cpu0;
      s.due = s.submit = since(t0, a);
      s.done = since(t0, b);
      finish(s, std::move(resp));
      if (tracer != nullptr) {
        Layers& l = *loop.layers;
        const int req = tracer->add("request", "client", a, b, -1, i);
        tracer->add("queue_wait", "scheduler", a, a, req, i);
        const int svc = tracer->add("service", "scheduler", a, b, req, i);
        const double crit = absorb_request(l, probe->take(), tracer, svc, i,
                                           origin_s + s.submit);
        l.queue_wait_s.push_back(0.0);
        l.service_s.push_back(s.done - s.submit);
        l.host_gap_s.push_back(s.done - s.submit - crit);
      }
      samples.push_back(std::move(s));
    });
  } else {
    // Seeded Poisson arrivals conditioned on exactly rate * seconds of them
    // in the window (normalized exponential gaps), so the offered load is
    // the same for every seed.
    Rng rng(seed ^ 0xa11a11a1ULL);
    const auto n = std::max<std::size_t>(
        min_requests, static_cast<std::size_t>(spec.rate_per_s * seconds));
    std::vector<double> due;
    double t = 0;
    for (std::size_t i = 0; i <= n; ++i) {
      t += -std::log(1.0 - rng.uniform_double());
      due.push_back(t);
    }
    const double span = std::max(seconds, static_cast<double>(n) / spec.rate_per_s);
    for (double& d : due) d *= span / t;
    due.pop_back();
    samples.resize(due.size());
    std::vector<std::optional<std::future<gpuksel::serve::ServeResponse>>> futs(
        due.size());
    std::mutex mu;
    std::condition_variable cv;
    std::size_t submitted = 0;
    loop.lateness_s.resize(due.size());
    std::thread generator([&] {
      for (std::size_t i = 0; i < due.size(); ++i) {
        Sample& s = samples[i];
        s.input = i % pool.size();
        s.queries = pool[s.input].count;
        s.due = due[i];
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(due[i])));
        s.submit = since(t0, Clock::now());
        auto f = sched.try_submit(pool[s.input], spec.k);
        loop.lateness_s[i] = s.submit - s.due;
        {
          std::lock_guard<std::mutex> lock(mu);
          futs[i] = std::move(f);
          submitted = i + 1;
        }
        cv.notify_one();
      }
    });
    std::vector<bool> answered(due.size(), false);
    for (std::size_t i = 0; i < due.size(); ++i) {
      std::optional<std::future<gpuksel::serve::ServeResponse>> f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return submitted > i; });
        f = std::move(futs[i]);
      }
      Sample& s = samples[i];
      if (!f) {  // queue full: refused at admission
        s.done = s.submit;
        s.cpu = process_cpu_seconds() - cpu0;
        continue;
      }
      auto resp = f->get();
      s.done = since(t0, Clock::now());
      s.cpu = process_cpu_seconds() - cpu0;
      answered[i] = resp.served;
      finish(s, std::move(resp));
    }
    generator.join();
    if (tracer != nullptr) {
      // One request at a time reaches the engine, so each device's records
      // split into per-request groups at the request's first kernel.
      Layers& l = *loop.layers;
      std::vector<std::vector<std::vector<KernelRecord>>> groups;
      std::size_t served = 0;
      for (bool a : answered) served += a ? 1 : 0;
      for (std::size_t d = 0; d < probe->devices(); ++d) {
        groups.push_back(split_requests(
            probe->records(d), probe->is_merge(d) ? "shard_merge" : "coarse_quantize"));
        if (groups.back().size() != served) {
          throw std::runtime_error("launch records do not split into requests");
        }
      }
      double ready_prev = 0.0;
      std::size_t g = 0;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& s = samples[i];
        const int req = tracer->add("request", "client", origin_s + s.due,
                                    origin_s + s.done, -1, i);
        tracer->add("submit", "client", origin_s + s.due, origin_s + s.submit,
                    req, i);
        if (!answered[i]) continue;
        // Scheduler serves FIFO on one worker: start_i = max(submit_i, ready_{i-1}).
        const double start = std::max(s.submit, ready_prev);
        ready_prev = s.done;
        tracer->add("queue_wait", "scheduler", origin_s + s.submit,
                    origin_s + start, req, i);
        const int svc = tracer->add("service", "scheduler", origin_s + start,
                                    origin_s + s.done, req, i);
        std::vector<Track> tracks;
        for (std::size_t d = 0; d < probe->devices(); ++d) {
          tracks.push_back({probe->track(d), std::move(groups[d][g]),
                            probe->is_merge(d)});
        }
        ++g;
        const double crit =
            absorb_request(l, tracks, tracer, svc, i, origin_s + start);
        l.queue_wait_s.push_back(start - s.submit);
        l.service_s.push_back(s.done - start);
        l.host_gap_s.push_back(s.done - start - crit);
      }
    }
  }
  loop.wall_s = since(t0, Clock::now());
  if (probe) probe->finish(*loop.layers);
  return loop;
}

/// Shared driver for the two Scheduler workloads.  `expected` holds the
/// reference answer of every pool batch; `exact` the exact top-k for recall.
Run run_serve(const Config& cfg, const ServeSpec& spec, const Dataset& refs,
              const std::vector<Dataset>& pool, const std::vector<Answer>& expected,
              const std::vector<Answer>& exact) {
  Run run;
  std::unique_ptr<ShardedKnn> engine;
  std::unique_ptr<Scheduler> sched;
  gpuksel::serve::SchedulerOptions sopts;
  sopts.queue_capacity = 64;  // an open loop sheds only after a long stall
  sopts.overload = spec.open_loop ? gpuksel::serve::OverloadPolicy::kRejectNewest
                                  : gpuksel::serve::OverloadPolicy::kBlock;
  while (more_setups(run.setup_wall_s)) {
    sched.reset();
    engine.reset();
    time_setup(run.setup_wall_s, run.setup_cpu_s, [&] {
      engine = std::make_unique<ShardedKnn>(refs, spec.options);
      sched = std::make_unique<Scheduler>(*engine, sopts);
      (void)sched->submit(pool[0], spec.k).get();
    });
  }
  for (Device* d : devices_of(*engine)) run.executor_threads.push_back(d->worker_threads());

  const auto origin = Clock::now();
  std::optional<Tracer> tracer;
  // A traced run splits the window and the minimum sample count in two.
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const std::size_t min_requests =
      cfg.trace ? spec.min_requests / 2 : spec.min_requests;
  if (cfg.trace) {
    tracer.emplace(origin);
    run.loops.push_back(serve_loop(*engine, *sched, spec, pool, expected, exact,
                                   cfg.seconds - untraced_s, min_requests,
                                   cfg.seed + 1, &*tracer, origin));
  }
  run.loops.push_back(serve_loop(*engine, *sched, spec, pool, expected, exact,
                                 untraced_s, min_requests, cfg.seed, nullptr,
                                 origin));
  sched->shutdown();
  digest_prefix(run, pool.size());
  if (cfg.trace && !cfg.chrome_trace.empty()) tracer->write_chrome(cfg.chrome_trace);
  return run;
}

std::vector<Dataset> split_pool(const Dataset& all, std::uint32_t first,
                                std::uint32_t batches, std::uint32_t per_batch) {
  std::vector<Dataset> pool;
  for (std::uint32_t b = 0; b < batches; ++b) {
    pool.push_back(slice_rows(all, first + b * per_batch, per_batch));
  }
  return pool;
}

std::vector<Answer> host_exact(const Dataset& refs, const std::vector<Dataset>& pool,
                               std::uint32_t k) {
  const gpuksel::knn::BruteForceKnn host(refs);
  std::vector<Answer> out;
  for (const Dataset& q : pool) out.push_back(host.search(q, k).neighbors);
  return out;
}

Run flat_exact(const Config& cfg) {
  constexpr std::uint32_t kRows = 16384, kDim = 16, kQueries = 256, kK = 16;
  constexpr std::uint32_t kPool = 8;
  const Dataset refs = gpuksel::knn::make_uniform_dataset(kRows, kDim, cfg.seed);
  const auto pool = split_pool(
      gpuksel::knn::make_uniform_dataset(kPool * kQueries, kDim, cfg.seed + 1), 0,
      kPool, kQueries);
  const auto exact = host_exact(refs, pool, kK);
  ServeSpec spec;
  spec.options.num_shards = 1;
  spec.options.index_type = IndexType::kFlat;
  spec.options.batch.batch.tile_refs = 128;
  spec.k = kK;
  spec.min_requests = 100;  // ten samples beyond the p90 tail
  Run run = run_serve(cfg, spec, refs, pool, exact, exact);
  run.latency_limit_ms = 2000;
  return run;
}

Run ivf_open(const Config& cfg) {
  constexpr std::uint32_t kRows = 100000, kDim = 8, kQueries = 32, kK = 10;
  constexpr std::uint32_t kPool = 32;
  const auto data = gpuksel::knn::make_gaussian_clusters(
      kRows + kPool * kQueries, kDim, 64, 0.25f, cfg.seed);
  const Dataset refs = slice_rows(data.points, 0, kRows);
  const auto pool = split_pool(data.points, kRows, kPool, kQueries);
  ServeSpec spec;
  spec.options.num_shards = 2;
  spec.options.index_type = IndexType::kIvf;
  spec.options.ivf.nlist = 64;
  spec.options.ivf.nprobe = 8;
  spec.k = kK;
  spec.open_loop = true;
  spec.rate_per_s = 30;      // about half of one worker's capacity
  spec.min_requests = 200;   // ten samples beyond the p95 tail
  // The single-device IvfKnn mirror at the same nprobe is the reference.
  gpuksel::knn::IvfOptions iopts;
  iopts.params = spec.options.ivf;
  gpuksel::knn::IvfKnn mirror(refs, iopts);
  Device train_dev;
  const auto a = Clock::now();
  mirror.train(train_dev);
  const double train_s = since(a, Clock::now());
  std::vector<Answer> expected;
  for (const Dataset& q : pool) expected.push_back(mirror.search_host(q, kK).neighbors);
  const auto exact = host_exact(refs, pool, kK);
  Run run = run_serve(cfg, spec, refs, pool, expected, exact);
  if (cfg.trace) run.loops.front().layers->ivf_train_s = train_s;
  run.latency_limit_ms = 150;
  // The generator's p99 lateness must stay under one mean inter-arrival gap.
  run.lateness_bound_ms = 1000.0 / spec.rate_per_s;
  return run;
}

// --- mutable_churn: ShardedKnn kMutable driven directly ----------------------

struct MutOp {
  enum Kind : std::uint8_t { kUpsert, kInsert, kRemove } kind;
  std::uint32_t id;
  std::vector<float> row;
};

/// The benchmark's own model of the live rows, keyed by global id.
class LiveModel {
 public:
  explicit LiveModel(const Dataset& initial) : dim_(initial.dim) {
    for (std::uint32_t i = 0; i < initial.count; ++i) {
      put(i, std::vector<float>(initial.row(i), initial.row(i) + dim_));
    }
  }
  void put(std::uint32_t id, std::vector<float> row) {
    if (!rows_.contains(id)) {
      pos_[id] = live_.size();
      live_.push_back(id);
    }
    rows_[id] = std::move(row);
  }
  void erase(std::uint32_t id) {
    const std::size_t p = pos_.at(id);
    live_[p] = live_.back();
    pos_[live_[p]] = p;
    live_.pop_back();
    pos_.erase(id);
    rows_.erase(id);
  }
  void apply(const MutOp& op) {
    if (op.kind == MutOp::kRemove) {
      erase(op.id);
    } else {
      put(op.id, op.row);
    }
  }
  [[nodiscard]] std::uint32_t pick(Rng& rng) const {
    return live_[rng.uniform_below(live_.size())];
  }
  [[nodiscard]] Answer top_k(const Dataset& queries, std::uint32_t k) const {
    std::vector<const float*> rows;
    for (std::uint32_t id : live_) rows.push_back(rows_.at(id).data());
    Answer out;
    for (std::uint32_t q = 0; q < queries.count; ++q) {
      out.push_back(exact_top_k(queries.row(q), dim_, rows, live_, k));
    }
    return out;
  }

 private:
  std::uint32_t dim_;
  std::vector<std::uint32_t> live_;
  std::unordered_map<std::uint32_t, std::size_t> pos_;
  std::unordered_map<std::uint32_t, std::vector<float>> rows_;
};

constexpr std::uint32_t kChurnDim = 8;
// Writes per cycle, 2:1:1 upsert (replace of a live id) : insert : remove.
// Inserts match removes, so the live set stays near its initial 8192 rows and
// the cost per cycle does not drift over a run.  Upserts and inserts add 192
// delta rows and upserts and removes 192 tombstones per cycle, 96 of each per
// shard, so a shard of ~4096 rows crosses the default 0.25 delta and
// tombstone fractions about every 14 cycles.
constexpr std::uint32_t kChurnOpsPerCycle = 256;
// Cycles per loop at least: ten samples beyond the p75 search tail, and at
// least kChurnMinCompactions compactions per shard.
constexpr std::size_t kChurnMinCycles = 40;
constexpr std::uint64_t kChurnMinCompactions = 2;

struct ChurnLog {
  std::vector<MutOp> ops;
  std::vector<std::size_t> ops_before_search;  ///< per cycle
};

std::vector<std::uint64_t> shard_compactions(ShardedKnn& engine) {
  std::vector<std::uint64_t> n;
  for (std::uint32_t s = 0; s < engine.num_shards(); ++s) {
    n.push_back(engine.shard(s).mutable_engine()->stats().compactions);
  }
  return n;
}

std::uint64_t total_compactions(ShardedKnn& engine) {
  const auto n = shard_compactions(engine);
  return std::accumulate(n.begin(), n.end(), std::uint64_t{0});
}

std::vector<Device*> compaction_devices(ShardedKnn& engine) {
  std::vector<Device*> devs;
  for (std::uint32_t s = 0; s < engine.num_shards(); ++s) {
    devs.push_back(&engine.shard(s).mutable_engine()->compaction_device());
  }
  return devs;
}

Loop churn_loop(ShardedKnn& engine, LiveModel& model, ChurnLog& log, Rng& rng,
                const std::vector<Dataset>& pool, double seconds,
                std::size_t min_cycles, std::size_t cycle0, Tracer* tracer,
                Clock::time_point origin) {
  constexpr std::uint32_t kK = 10;
  Loop loop;
  std::optional<LayerProbe> probe;
  std::uint64_t delta_bytes0 = 0;
  const auto compactions0 = shard_compactions(engine);
  auto delta_bytes = [&] {
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < engine.num_shards(); ++s) {
      n += engine.shard(s).mutable_engine()->stats().delta_bytes_uploaded;
    }
    return n;
  };
  if (tracer != nullptr) {
    loop.layers.emplace();
    loop.layers->head_limit = min_cycles;
    probe.emplace(devices_of(engine), true, compaction_devices(engine));
    delta_bytes0 = delta_bytes();
  }
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  closed_loop(seconds, min_cycles, [&](std::size_t i) {
    const std::size_t cycle = cycle0 + i;
    const auto c0 = Clock::now();
    const int req = tracer != nullptr
                        ? tracer->add("request", "client", c0, c0, -1, cycle)
                        : -1;
    for (std::uint32_t o = 0; o < kChurnOpsPerCycle; ++o) {
      MutOp op{};
      const std::uint64_t kind = rng.uniform_below(4);
      op.kind = kind < 2 ? MutOp::kUpsert
                         : (kind == 2 ? MutOp::kInsert : MutOp::kRemove);
      if (op.kind != MutOp::kRemove) {
        op.row.resize(kChurnDim);
        for (float& v : op.row) v = rng.uniform_float();
      }
      if (op.kind != MutOp::kInsert) op.id = model.pick(rng);
      const std::uint64_t comp_before =
          tracer != nullptr ? total_compactions(engine) : 0;
      const auto a = Clock::now();
      switch (op.kind) {
        case MutOp::kUpsert: engine.upsert(op.id, op.row); break;
        case MutOp::kInsert: op.id = engine.insert(op.row); break;
        case MutOp::kRemove: (void)engine.remove(op.id); break;
      }
      const auto b = Clock::now();
      const double dt = since(a, b);
      (op.kind == MutOp::kUpsert   ? loop.upsert_s
       : op.kind == MutOp::kInsert ? loop.insert_s
                                   : loop.remove_s)
          .push_back(dt);
      if (tracer != nullptr) {
        static const char* const names[] = {"upsert", "insert", "remove"};
        tracer->add(names[op.kind], "client", a, b, req, cycle);
        if (total_compactions(engine) != comp_before) {
          loop.layers->compaction_stall_s.push_back(dt);
        }
      }
      model.apply(op);
      log.ops.push_back(std::move(op));
    }
    log.ops_before_search.push_back(log.ops.size());
    Sample s;
    s.input = cycle % pool.size();
    s.queries = pool[s.input].count;
    if (tracer != nullptr) {
      double delta_rows = 0;
      for (std::uint32_t sh = 0; sh < engine.num_shards(); ++sh) {
        delta_rows += engine.shard(sh).mutable_engine()->delta_rows();
      }
      loop.layers->delta_rows_at_search.push_back(delta_rows);
    }
    const auto a = Clock::now();
    ShardedResult r = engine.search(pool[s.input], kK);
    const auto b = Clock::now();
    s.cpu = process_cpu_seconds() - cpu0;
    s.due = s.submit = since(t0, a);
    s.done = since(t0, b);
    s.served = true;  // search() throws when the fault policy gives up
    s.modeled_s = r.modeled_seconds;
    s.instructions = instructions_of(r);
    s.stats_hash = stats_hash(r);
    if (tracer != nullptr) {
      Layers& l = *loop.layers;
      charge_shards(l, r);
      const int srch = tracer->add("search", "client", a, b, req, cycle);
      const double crit = absorb_request(l, probe->take(), tracer, srch, cycle,
                                         since(origin, a));
      l.queue_wait_s.push_back(0.0);
      l.service_s.push_back(s.done - s.submit);
      l.host_gap_s.push_back(s.done - s.submit - crit);
      tracer->close(req, b);
    }
    s.answer = std::move(r.neighbors);
    loop.samples.push_back(std::move(s));
  });
  loop.wall_s = since(t0, Clock::now());
  const auto compactions = shard_compactions(engine);
  std::uint64_t compacted = 0;
  for (std::size_t sh = 0; sh < compactions.size(); ++sh) {
    const std::uint64_t n = compactions[sh] - compactions0[sh];
    if (n < kChurnMinCompactions) {
      throw std::runtime_error(
          "mutable_churn: shard " + std::to_string(sh) + " compacted " +
          std::to_string(n) + " times in " + std::to_string(loop.samples.size()) +
          " cycles; the workload needs at least " +
          std::to_string(kChurnMinCompactions) + " per shard and loop");
    }
    compacted += n;
  }
  if (probe) {
    probe->finish(*loop.layers);
    loop.layers->delta_bytes = delta_bytes() - delta_bytes0;
    loop.layers->compactions = compacted;
  }
  return loop;
}

Run mutable_churn(const Config& cfg) {
  constexpr std::uint32_t kRows = 8192, kQueries = 64, kK = 10, kPool = 8;
  const Dataset initial =
      gpuksel::knn::make_uniform_dataset(kRows, kChurnDim, cfg.seed);
  const auto pool = split_pool(
      gpuksel::knn::make_uniform_dataset(kPool * kQueries, kChurnDim, cfg.seed + 1),
      0, kPool, kQueries);
  ShardedKnnOptions opts;
  opts.num_shards = 2;
  opts.index_type = IndexType::kMutable;
  Run run;
  std::unique_ptr<ShardedKnn> engine;
  while (more_setups(run.setup_wall_s)) {
    engine.reset();
    time_setup(run.setup_wall_s, run.setup_cpu_s, [&] {
      engine = std::make_unique<ShardedKnn>(initial, opts);
      (void)engine->search(pool[0], kK);
    });
  }
  for (Device* d : devices_of(*engine)) run.executor_threads.push_back(d->worker_threads());

  LiveModel model(initial);
  ChurnLog log;
  Rng rng(cfg.seed ^ 0xc4u);
  const auto origin = Clock::now();
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::optional<Tracer> tracer;
  if (cfg.trace) {
    tracer.emplace(origin);
    run.loops.push_back(churn_loop(*engine, model, log, rng, pool,
                                   cfg.seconds - untraced_s, kChurnMinCycles, 0,
                                   &*tracer, origin));
  }
  run.loops.push_back(churn_loop(
      *engine, model, log, rng, pool, untraced_s, kChurnMinCycles,
      cfg.trace ? run.loops[0].samples.size() : 0, nullptr, origin));

  // Replay the op log on a fresh model, loops in the order they ran, and check
  // every search against the exact top-k over the rows live at that point.
  LiveModel replay(initial);
  std::size_t applied = 0, cycle = 0;
  for (Loop& loop : run.loops) {
    for (Sample& s : loop.samples) {
      for (; applied < log.ops_before_search[cycle]; ++applied) {
        replay.apply(log.ops[applied]);
      }
      const Answer exact = replay.top_k(pool[s.input], kK);
      s.correct = s.served && s.answer == exact;
      s.recall = RandomBallCover::recall(s.answer, exact);
      ++cycle;
    }
  }
  digest_prefix(run, kChurnMinCycles);
  run.latency_limit_ms = 2000;
  if (cfg.trace && !cfg.chrome_trace.empty()) tracer->write_chrome(cfg.chrome_trace);
  return run;
}

// --- paper_select: BruteForceKnn::search_gpu, Table I's best configuration ----

Run paper_select(const Config& cfg) {
  constexpr std::uint32_t kRows = 1u << 15, kDim = 128, kQueries = 128, kK = 256;
  constexpr std::uint32_t kPool = 4;
  constexpr double kPaperQueries = 8192.0;
  // Table I, row "Merge Queue aligned+buf+hp", column N=2^15, k=2^8.
  constexpr double kPublishedSeconds = 0.14;
  const Dataset refs = gpuksel::knn::make_uniform_dataset(kRows, kDim, cfg.seed);
  const auto pool = split_pool(
      gpuksel::knn::make_uniform_dataset(kPool * kQueries, kDim, cfg.seed + 1), 0,
      kPool, kQueries);
  const auto exact = host_exact(refs, pool, kK);
  gpuksel::knn::GpuSearchOptions opts;
  opts.select.queue = gpuksel::kernels::QueueKind::kMerge;
  opts.select.aligned_merge = true;
  opts.select.buffer = gpuksel::kernels::BufferMode::kFullSorted;
  opts.use_hierarchical_partition = true;
  opts.hp_group = 4;

  Run run;
  std::unique_ptr<gpuksel::knn::BruteForceKnn> knn;
  std::unique_ptr<Device> dev;
  while (more_setups(run.setup_wall_s)) {
    time_setup(run.setup_wall_s, run.setup_cpu_s, [&] {
      knn = std::make_unique<gpuksel::knn::BruteForceKnn>(refs);
      dev = std::make_unique<Device>();
      (void)knn->search_gpu(*dev, pool[0], kK, opts);
    });
  }
  run.executor_threads.push_back(dev->worker_threads());

  const auto origin = Clock::now();
  std::optional<Tracer> tracer;
  auto loop_for = [&](double seconds, std::size_t min_count, Tracer* tr) {
    Loop loop;
    std::optional<LayerProbe> probe;
    if (tr != nullptr) {
      loop.layers.emplace();
      loop.layers->head_limit = pool.size();
      probe.emplace(std::vector<Device*>{dev.get()}, false);
    }
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    closed_loop(seconds, min_count, [&](std::size_t i) {
      Sample s;
      s.input = i % pool.size();
      s.queries = pool[s.input].count;
      const auto a = Clock::now();
      auto r = knn->search_gpu(*dev, pool[s.input], kK, opts);
      const auto b = Clock::now();
      s.cpu = process_cpu_seconds() - cpu0;
      s.due = s.submit = since(t0, a);
      s.done = since(t0, b);
      s.served = true;  // no host fallback: a fault would throw
      s.modeled_s = r.modeled_seconds;
      s.instructions = r.distance_metrics.instructions + r.select_metrics.instructions;
      Digest d;
      d.add(r.distance_metrics);
      d.add(r.select_metrics);
      d.add(r.modeled_seconds);
      s.stats_hash = d.value();
      check(s, r.neighbors, exact[s.input], exact[s.input]);
      if (tr != nullptr) {
        Layers& l = *loop.layers;
        const int req = tr->add("request", "client", a, b, -1, i);
        const int srch = tr->add("search_gpu", "client", a, b, req, i);
        const double crit =
            absorb_request(l, probe->take(), tr, srch, i, since(origin, a));
        l.queue_wait_s.push_back(0.0);
        l.service_s.push_back(s.done - s.submit);
        l.host_gap_s.push_back(s.done - s.submit - crit);
      }
      loop.samples.push_back(std::move(s));
    });
    loop.wall_s = since(t0, Clock::now());
    if (probe) probe->finish(*loop.layers);
    return loop;
  };
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  // At least ten samples beyond the p90 tail; a traced run splits them.
  const std::size_t min_calls = cfg.trace ? 50 : 100;
  if (cfg.trace) {
    tracer.emplace(origin);
    run.loops.push_back(loop_for(cfg.seconds - untraced_s, min_calls, &*tracer));
  }
  run.loops.push_back(loop_for(untraced_s, min_calls, nullptr));
  digest_prefix(run, kPool);
  // Selection-only modeled seconds of the first batch, per kernel, scaled
  // from this batch's warps to the paper's Q = 2^13 by the cost model.
  Device acc_dev;
  Profiler acc;
  acc_dev.set_profiler(&acc);
  (void)knn->search_gpu(acc_dev, pool[0], kK, opts);
  const auto model = gpuksel::simt::c2075_model();
  double selection_s = 0.0;
  for (const KernelRecord& rec : acc.records()) {
    if (rec.kernel == "gpu_distance_matrix") continue;
    selection_s += model.kernel_seconds_scaled(rec.total, kPaperQueries / kQueries);
  }
  run.extra["paper_selection_s_q8192"] = selection_s;
  run.extra["paper_published_s"] = kPublishedSeconds;
  run.extra["paper_rel_error"] = (selection_s - kPublishedSeconds) / kPublishedSeconds;
  run.latency_limit_ms = 2000;
  if (cfg.trace && !cfg.chrome_trace.empty()) tracer->write_chrome(cfg.chrome_trace);
  return run;
}

// --- output ------------------------------------------------------------------

template <typename T>
void write_array(std::ostream& os, const char* key, const std::vector<T>& v) {
  os << "\"" << key << "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << "]";
}

void write_kernels(std::ostream& os, const char* key,
                   const std::map<std::string, KernelAgg>& kernels) {
  os << "\"" << key << "\":{";
  bool first = true;
  for (const auto& [name, k] : kernels) {
    os << (first ? "" : ",") << "\"" << name << "\":{\"launches\":" << k.launches
       << ",\"warps\":" << k.warps << ",\"wall_s\":" << k.wall_s
       << ",\"modeled_s\":" << k.modeled_s
       << ",\"instructions\":" << k.total.instructions
       << ",\"useful_lane_slots\":" << k.total.useful_lane_slots
       << ",\"global_tx\":" << k.total.global_tx() << "}";
    first = false;
  }
  os << "}";
}

void write_layers(std::ostream& os, const Layers& l) {
  os << "{\"requests\":" << l.requests << ",\"head_requests\":" << l.head_requests
     << ",";
  write_kernels(os, "kernels", l.kernels); os << ",";
  write_kernels(os, "head_kernels", l.head_kernels); os << ",";
  write_array(os, "launches", l.launches); os << ",";
  write_array(os, "launch_wall_s", l.launch_wall_s); os << ",";
  write_array(os, "merge_wall_s", l.merge_wall_s); os << ",";
  write_array(os, "straggler", l.straggler); os << ",";
  write_array(os, "modeled_imbalance", l.modeled_imbalance); os << ",";
  write_array(os, "host_gap_s", l.host_gap_s); os << ",";
  write_array(os, "queue_wait_s", l.queue_wait_s); os << ",";
  write_array(os, "service_s", l.service_s); os << ",";
  write_array(os, "worker_threads", l.worker_threads); os << ",";
  write_array(os, "compaction_stall_s", l.compaction_stall_s); os << ",";
  write_array(os, "delta_rows_at_search", l.delta_rows_at_search);
  os << ",\"retries\":" << l.retries << ",\"exclusions\":" << l.exclusions
     << ",\"degraded\":" << l.degraded << ",\"threads_peak\":" << l.threads_peak
     << ",\"pool_requested\":" << l.pool_requested
     << ",\"pool_served\":" << l.pool_served << ",\"h2d_bytes\":" << l.h2d_bytes
     << ",\"compactions\":" << l.compactions
     << ",\"delta_bytes\":" << l.delta_bytes
     << ",\"ivf_train_s\":" << l.ivf_train_s << "}";
}

void write_loop(std::ostream& os, const Loop& loop) {
  std::vector<double> due, submit, done, cpu, modeled;
  std::vector<int> served, correct;
  std::vector<std::uint32_t> queries;
  std::vector<std::uint64_t> instructions;
  std::vector<double> rec;
  for (const Sample& s : loop.samples) {
    due.push_back(s.due);
    submit.push_back(s.submit);
    done.push_back(s.done);
    cpu.push_back(s.cpu);
    queries.push_back(s.queries);
    served.push_back(s.served ? 1 : 0);
    correct.push_back(s.correct ? 1 : 0);
    rec.push_back(s.recall);
    modeled.push_back(s.modeled_s);
    instructions.push_back(s.instructions);
  }
  os << "{\"wall_s\":" << loop.wall_s << ",";
  write_array(os, "due_s", due); os << ",";
  write_array(os, "submit_s", submit); os << ",";
  write_array(os, "done_s", done); os << ",";
  write_array(os, "cpu_s", cpu); os << ",";
  write_array(os, "queries", queries); os << ",";
  write_array(os, "served", served); os << ",";
  write_array(os, "correct", correct); os << ",";
  write_array(os, "recall", rec); os << ",";
  write_array(os, "modeled_s", modeled); os << ",";
  write_array(os, "instructions", instructions); os << ",";
  write_array(os, "lateness_s", loop.lateness_s); os << ",";
  write_array(os, "upsert_s", loop.upsert_s); os << ",";
  write_array(os, "insert_s", loop.insert_s); os << ",";
  write_array(os, "remove_s", loop.remove_s);
  os << ",\"layers\":";
  if (loop.layers) {
    write_layers(os, *loop.layers);
  } else {
    os << "null";
  }
  os << "}";
}

std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "" : v;
}

void write_run(std::ostream& os, const Config& cfg, const Run& run) {
  namespace lv = gpuksel::simt::lanevec;
  os << std::setprecision(17) << "{\"workload\":\"" << cfg.workload
     << "\",\"seed\":" << cfg.seed << ",\"seconds\":" << cfg.seconds
     << ",\"validity\":{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"compiler\":\"" << PERFBENCH_COMPILER << "\""
     << ",\"backend_name\":\"" << lv::backend_name() << "\""
     << ",\"backend_enabled\":" << (lv::enabled() ? "true" : "false")
     << ",\"library_tier\":\"" << PERFBENCH_LIBRARY_TIER << "\""
     << ",\"GPUKSEL_THREADS\":\"" << env_or_empty("GPUKSEL_THREADS") << "\""
     << ",\"GPUKSEL_SIMD\":\"" << env_or_empty("GPUKSEL_SIMD") << "\",";
  write_array(os, "executor_threads", run.executor_threads);
  os << ",\"lateness_bound_ms\":" << run.lateness_bound_ms << "},";
  write_array(os, "setup_wall_s", run.setup_wall_s);
  os << ",";
  write_array(os, "setup_cpu_s", run.setup_cpu_s);
  os << ",\"latency_limit_ms\":" << run.latency_limit_ms
     << ",\"peak_rss_mb\":" << peak_rss_mb() << ",\"digest\":\"" << run.digest
     << "\",\"digest_requests\":" << run.digest_requests
     << ",\"digest_queries\":" << run.digest_queries
     << ",\"digest_modeled_s\":" << run.digest_modeled_s << ",\"extra\":{";
  bool first = true;
  for (const auto& [k, v] : run.extra) {
    os << (first ? "" : ",") << "\"" << k << "\":" << v;
    first = false;
  }
  os << "},\"loops\":[";
  for (std::size_t i = 0; i < run.loops.size(); ++i) {
    if (i) os << ",";
    write_loop(os, run.loops[i]);
  }
  os << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") cfg.workload = value;
    else if (flag == "--seed") cfg.seed = std::stoull(value);
    else if (flag == "--seconds") cfg.seconds = std::stod(value);
    else if (flag == "--trace") cfg.trace = value == "1";
    else if (flag == "--out") cfg.out = value;
    else if (flag == "--chrome-trace") cfg.chrome_trace = value;
    else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  const std::map<std::string, std::function<Run(const Config&)>> workloads{
      {"flat_exact", flat_exact},
      {"ivf_open", ivf_open},
      {"mutable_churn", mutable_churn},
      {"paper_select", paper_select},
  };
  const auto it = workloads.find(cfg.workload);
  if (it == workloads.end() || cfg.out.empty() || cfg.seconds <= 0) {
    std::cerr << "usage: perfbench_driver --workload <"
                 "flat_exact|ivf_open|mutable_churn|paper_select> --seed <n> "
                 "--seconds <s> --trace <0|1> --out <raw.json> "
                 "[--chrome-trace <path>]\n";
    return 2;
  }
  try {
    const Run run = it->second(cfg);
    std::ofstream os(cfg.out);
    write_run(os, cfg, run);
    if (!os) throw std::runtime_error("cannot write " + cfg.out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
