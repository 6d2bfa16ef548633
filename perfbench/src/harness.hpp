// Measurement machinery shared by the four workloads: seeded input
// generators, percentiles that refuse to report what the sample cannot
// support, host clocks, counter snapshots taken at window boundaries, the
// per-run accumulator and the metric report.
//
// Nothing here calls into the program's own load generator or statistics
// helpers: a change to the program must not change how it is measured.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tccluster/cluster.hpp"

namespace pb {

// ---- deterministic inputs ---------------------------------------------------

/// SplitMix64 step: derives independent sub-seeds from (seed, stream, index).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index = 0);

/// Fill `out` with bytes derived from (seed, stream): payloads a receiver or
/// a read-back can re-derive and compare without being told what was sent.
void fill_seeded(std::span<std::uint8_t> out, std::uint64_t seed, std::uint64_t stream);

/// xoshiro256** seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n);
  /// Uniform in [0, 1).
  double uniform();
  /// Exponential with the given mean (Poisson inter-arrival gaps).
  double exponential(double mean);

 private:
  std::uint64_t s_[4];
};

/// YCSB Zipfian rank generator over [0, n) with skew theta (Gray et al.).
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta);
  std::uint64_t next(Rng& rng) const;

 private:
  std::uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

// ---- samples ---------------------------------------------------------------

/// A pool of timing samples. Percentiles are nearest-rank and are refused
/// (nullopt) when fewer than kMinBeyond samples lie above the requested rank,
/// so a p99.9 needs at least 10 000 samples.
class Dist {
 public:
  static constexpr std::uint64_t kMinBeyond = 10;
  void add(double v) { v_.push_back(v); }
  void merge(const Dist& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  [[nodiscard]] std::uint64_t n() const { return v_.size(); }
  [[nodiscard]] std::optional<double> pct(double p) const;
  [[nodiscard]] const std::vector<double>& values() const { return v_; }

 private:
  std::vector<double> v_;
};

/// `base` ops scaled by --seconds / 10, never fewer than `floor`.
std::uint64_t scaled(double base, double scale, double floor = 1.0);

/// Median of a small vector of host measurements (0 when empty).
double median(std::vector<double> v);

// ---- host clocks -------------------------------------------------------------

double thread_cpu_s();
/// Thread CPU seconds of a fixed work unit shaped like a discrete-event
/// simulation (a heap of timed events, hash lookups, small allocations). It
/// shares no code with the program, so it measures how fast this host runs
/// right now and nothing else.
double calibration_s();
double peak_rss_mb();
/// Heap allocations made by this process so far (operator new is replaced in
/// harness.cpp to count them).
std::uint64_t heap_allocs();

// ---- counters at window boundaries -------------------------------------------

/// Everything a window diffs: the engine's own counters (read directly, not
/// through the registry mirror that only folds in when run() returns), the
/// registry counters the layers record live, per-direction link byte and
/// packet counters, heap allocations and the host CPU clock.
struct Snapshot {
  std::int64_t sim_ps = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::size_t peak_queue_depth = 0;
  double cpu_s = 0.0;
  std::vector<std::uint64_t> registry;    ///< values of kRegistryCounters
  std::vector<std::uint64_t> link_bytes;  ///< two entries per plan wire
  std::vector<std::uint64_t> link_packets;
  std::vector<std::uint64_t> ring_occupancy;  ///< histogram buckets
};

/// Registry counters every window diffs, in Snapshot::registry order.
extern const std::vector<std::string> kRegistryCounters;

Snapshot take_snapshot(tcc::cluster::TcCluster& cl);

// ---- per-run accumulator -----------------------------------------------------

/// What the repetitions of one run add up. `sum` holds exact quantities
/// (simulated times, counts) that add across repetitions; `dist` holds pooled
/// samples; `host` holds host measurements whose median is reported.
struct Accum {
  std::map<std::string, double> sum;
  std::map<std::string, double> max;
  std::map<std::string, Dist> dist;
  std::map<std::string, std::vector<double>> host;

  void add(const std::string& k, double v) { sum[k] += v; }
  void keep_max(const std::string& k, double v);
  void sample(const std::string& k, double v) { dist[k].add(v); }
  void host_sample(const std::string& k, double v) { host[k].push_back(v); }
  [[nodiscard]] double get(const std::string& k) const;
  /// Fold another repetition's accumulator into this one.
  void merge(const Accum& o);
  /// Adds every counter difference of a window under "w.<name>" keys.
  void add_window(const Snapshot& a, const Snapshot& b,
                  tcc::cluster::TcCluster& cl);
};

/// Counts completed ops and records the host CPU time of every
/// `ops_per_chunk` of them, so host cost is a median over many chunks.
class ChunkTimer {
 public:
  explicit ChunkTimer(std::uint64_t ops_per_chunk) : per_(ops_per_chunk) {}
  void start();
  void tick();  ///< one op completed
  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  /// Add the chunks to acc as host samples "cpu_us_per_op.<phase>" and the
  /// op count as "cpu_ops.<phase>" (phases of unlike cost are kept apart).
  void record(Accum& acc, const std::string& phase) const;

 private:
  std::uint64_t per_;
  std::uint64_t ops_ = 0;
  std::uint64_t mark_ops_ = 0;
  double mark_cpu_ = 0.0;
  std::vector<double> chunks_;
};

// ---- report ---------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::uint64_t n = 0;
  std::string note;
};

class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value,
           std::uint64_t n, std::string note = "");
  /// Percentile of `d` in the given unit. A percentile the sample cannot
  /// support is reported as 0 with a note; when `required`, it also makes
  /// ok() false (an end-to-end figure may not be silently missing).
  void add_pct(const std::string& name, const std::string& unit, const Dist& d,
               double p, bool required);
  [[nodiscard]] bool ok() const { return refused_.empty(); }
  [[nodiscard]] const std::vector<std::string>& refused() const { return refused_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  void print_table() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> refused_;
};

}  // namespace pb
