#include "harness.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <queue>
#include <unordered_map>

#include "telemetry/metrics.hpp"

// ---- allocation counting ------------------------------------------------------
// Replacing the global operator new is the only way to count every heap
// allocation the simulator makes (coroutine frames included) without touching
// the program. One simulation thread, so a plain counter suffices.

namespace {
std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t size = ((n == 0 ? 1 : n) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) { return counted_aligned(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_aligned(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pb {

// ---- inputs -----------------------------------------------------------------------

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t z = seed ^ (stream * 0x9e3779b97f4a7c15ull) ^ (index * 0xd1b54a32d192ed03ull);
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void fill_seeded(std::span<std::uint8_t> out, std::uint64_t seed, std::uint64_t stream) {
  for (std::size_t j = 0; j < out.size(); j += 8) {
    const std::uint64_t w = mix_seed(seed, stream, j / 8);
    std::memcpy(out.data() + j, &w, std::min<std::size_t>(8, out.size() - j));
  }
}

Rng::Rng(std::uint64_t seed) {
  for (int i = 0; i < 4; ++i) s_[i] = mix_seed(seed, 0x5eed, static_cast<std::uint64_t>(i));
}

std::uint64_t Rng::next() {
  const auto rotl = [](std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double Rng::exponential(double mean) { return -mean * std::log1p(-uniform()); }

Zipf::Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  double zeta2 = 0.0;
  zetan_ = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    const double term = 1.0 / std::pow(static_cast<double>(i), theta);
    zetan_ += term;
    if (i <= 2) zeta2 += term;
  }
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
}

std::uint64_t Zipf::next(Rng& rng) const {
  const double u = rng.uniform();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto r = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(r, n_ - 1);
}

// ---- samples ----------------------------------------------------------------------

std::optional<double> Dist::pct(double p) const {
  const std::uint64_t n = v_.size();
  if (n == 0) return std::nullopt;
  // The epsilon keeps e.g. 99.9 % of 10 000 at rank 9990 despite rounding.
  auto rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  std::vector<double> s = v_;
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(rank - 1), s.end());
  return s[rank - 1];
}

std::uint64_t scaled(double base, double scale, double floor) {
  return static_cast<std::uint64_t>(std::max(floor, base * scale));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---- host clocks --------------------------------------------------------------------

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double calibration_s() {
  struct Ev {
    std::uint64_t at, id;
    bool operator>(const Ev& o) const { return at != o.at ? at > o.at : id > o.id; }
  };
  const double t0 = thread_cpu_s();
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> heap;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> state;
  Rng rng(0xca11b);
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < 64; ++i) heap.push({rng.below(1000), i});
  for (int step = 0; step < 200000; ++step) {
    const Ev e = heap.top();
    heap.pop();
    auto& v = state[e.id % 4096];
    v.push_back(e.at);
    if (v.size() > 8) v.erase(v.begin(), v.begin() + 4);
    sum += v.front() ^ e.id;
    heap.push({e.at + 1 + rng.below(1000), e.id});
  }
  volatile std::uint64_t sink = sum;
  (void)sink;
  return thread_cpu_s() - t0;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so a benchmark started
  // from a larger parent process would report the parent's peak.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::uint64_t heap_allocs() { return g_allocs; }

// ---- snapshots ------------------------------------------------------------------------

const std::vector<std::string> kRegistryCounters = {
    "sim.engine.processes_spawned",
    "ht.link.credit_stalls",
    "opteron.wc.packets_emitted",
    "opteron.wc.flush_full_line",
    "opteron.wc.flush_eviction",
    "opteron.wc.flush_fence",
    "opteron.nb.requests_forwarded",
    "tccluster.msg.sends",
    "tccluster.msg.acks_sent",
    "tccluster.msg.credit_stalls",
    "tccluster.rel.sends",
    "tccluster.rel.delivered",
    "tccluster.rel.ack_batch.published",
    "tccluster.rel.retransmits",
    "tccluster.rel.backpressure_stalls",
    "tcsvc.rpc.calls",
    "tcsvc.rpc.credit_stalls",
    "tcsvc.rpc.timeouts",
    "tcsvc.kv.puts",
    "tcsvc.kv.replications",
    "tcsvc.rebalance.entries_streamed",
    "tcsvc.rebalance.chunks",
    "tcsvc.rebalance.dual_writes",
    "tcstore.store.replicated_ops",
    "tcstore.store.scans",
};

Snapshot take_snapshot(tcc::cluster::TcCluster& cl) {
  auto& reg = tcc::telemetry::MetricsRegistry::global();
  Snapshot s;
  s.sim_ps = cl.engine().now().count();
  s.events = cl.engine().events_processed();
  s.peak_queue_depth = cl.engine().stats().peak_queue_depth;
  s.registry.reserve(kRegistryCounters.size());
  for (const std::string& name : kRegistryCounters) {
    s.registry.push_back(reg.counter(name).value());
  }
  auto& machine = cl.machine();
  for (int i = 0; i < machine.num_links(); ++i) {
    auto& link = machine.link(i);
    for (auto* side : {&link.side_a(), &link.side_b()}) {
      s.link_bytes.push_back(side->bytes_sent());
      s.link_packets.push_back(side->packets_sent());
    }
  }
  const auto& occ = reg.histogram("tccluster.msg.ring_occupancy");
  for (int i = 0; i < tcc::telemetry::Histogram::kBuckets; ++i) {
    s.ring_occupancy.push_back(occ.bucket(i));
  }
  // Allocations and the clock last, so the snapshot's own work (first use of a
  // registry name allocates) lands before the window opens.
  s.allocs = heap_allocs();
  s.cpu_s = thread_cpu_s();
  return s;
}

// ---- accumulator -----------------------------------------------------------------------

void Accum::keep_max(const std::string& k, double v) {
  auto it = max.find(k);
  if (it == max.end() || v > it->second) max[k] = v;
}

double Accum::get(const std::string& k) const {
  auto it = sum.find(k);
  return it == sum.end() ? 0.0 : it->second;
}

void Accum::merge(const Accum& o) {
  for (const auto& [k, v] : o.sum) sum[k] += v;
  for (const auto& [k, v] : o.max) keep_max(k, v);
  for (const auto& [k, d] : o.dist) dist[k].merge(d);
  for (const auto& [k, v] : o.host) host[k].insert(host[k].end(), v.begin(), v.end());
}

void Accum::add_window(const Snapshot& a, const Snapshot& b,
                       tcc::cluster::TcCluster& cl) {
  const double window_s = static_cast<double>(b.sim_ps - a.sim_ps) * 1e-12;
  add("w.sim_s", window_s);
  add("w.events", static_cast<double>(b.events - a.events));
  add("w.allocs", static_cast<double>(b.allocs - a.allocs));
  add("w.cpu_s", b.cpu_s - a.cpu_s);
  keep_max("w.peak_queue_depth", static_cast<double>(b.peak_queue_depth));
  for (std::size_t i = 0; i < kRegistryCounters.size(); ++i) {
    add("w." + kRegistryCounters[i], static_cast<double>(b.registry[i] - a.registry[i]));
  }
  double bytes = 0, packets = 0, util = 0;
  auto& machine = cl.machine();
  for (std::size_t i = 0; i < b.link_bytes.size(); ++i) {
    const double db = static_cast<double>(b.link_bytes[i] - a.link_bytes[i]);
    bytes += db;
    packets += static_cast<double>(b.link_packets[i] - a.link_packets[i]);
    auto& link = machine.link(static_cast<int>(i / 2));
    auto& side = (i % 2 == 0) ? link.side_a() : link.side_b();
    const double rate = side.regs().rate().bytes_per_second();
    if (window_s > 0 && rate > 0) util = std::max(util, db / (rate * window_s));
  }
  add("w.link_bytes", bytes);
  add("w.link_packets", packets);
  keep_max("w.max_link_util", util);
  // Ring occupancy: the log2 buckets of the window (report.cpp takes the
  // 99th-percentile bucket bound, the registry histogram's own rule).
  for (std::size_t i = 0; i < a.ring_occupancy.size(); ++i) {
    add("w.ring_occ." + std::to_string(i),
        static_cast<double>(b.ring_occupancy[i] - a.ring_occupancy[i]));
  }
}

// ---- chunk timer --------------------------------------------------------------------------

void ChunkTimer::start() {
  mark_ops_ = ops_;
  mark_cpu_ = thread_cpu_s();
}

void ChunkTimer::tick() {
  ++ops_;
  if (ops_ - mark_ops_ < per_) return;
  const double now = thread_cpu_s();
  chunks_.push_back((now - mark_cpu_) * 1e6 / static_cast<double>(ops_ - mark_ops_));
  mark_cpu_ = now;
  mark_ops_ = ops_;
}

void ChunkTimer::record(Accum& acc, const std::string& phase) const {
  for (double v : chunks_) acc.host_sample("cpu_us_per_op." + phase, v);
  acc.add("cpu_ops." + phase, static_cast<double>(ops_));
}

// ---- report ------------------------------------------------------------------------------

void Report::add(const std::string& name, const std::string& unit, double value,
                 std::uint64_t n, std::string note) {
  metrics_.push_back({name, unit, value, n, std::move(note)});
}

void Report::add_pct(const std::string& name, const std::string& unit, const Dist& d,
                     double p, bool required) {
  const auto v = d.pct(p);
  if (!v.has_value()) {
    if (required) refused_.push_back(name);
    metrics_.push_back({name, unit, 0.0, d.n(),
                        d.n() == 0 ? "no samples: layer idle on this workload"
                                   : "REFUSED: fewer than 10 samples beyond"});
    return;
  }
  metrics_.push_back({name, unit, *v, d.n(), ""});
}

void Report::print_table() const {
  std::printf("%-36s %16s  %-7s %10s  %s\n", "metric", "value", "unit", "n", "note");
  for (const Metric& m : metrics_) {
    std::printf("%-36s %16.6g  %-7s %10llu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.n), m.note.c_str());
  }
}

}  // namespace pb
