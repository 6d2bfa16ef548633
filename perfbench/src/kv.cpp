// kv_zipf_read and kv_rebalance: open-loop KV traffic generated here, not by
// the program's own load generator.
//
// kv_zipf_read: ring-4, chip 0 the client, chips 1-3 the servers. Poisson
// arrivals at 1 M req/s (just under the knee of bench/kv_serving), 90 % get
// and 10 % put, Zipf(0.99) over 1000 keys, 128 B values. RPC credits, the get
// path, tcrel and queueing set latency; the engine's idle polling sets host
// cost.
//
// kv_rebalance: ring-6, chip 0 the client and membership coordinator, chips
// 1-4 the servers (chip 5 only forwards), the same mix at 250 k req/s. After
// a steady stretch the coordinator drains a seeded choice of server and
// admits it back, again and again, while the load keeps running: the only
// workload where snapshot streaming, dual-write and the aux streams do the
// work.
#include <cstring>

#include "workloads.hpp"

namespace pb {

using tcc::cluster::TcCluster;
namespace tcsvc = tcc::tcsvc;

namespace {

constexpr std::uint64_t kKeys = 1000;
constexpr double kTheta = 0.99;
constexpr std::size_t kValueBytes = 128;
constexpr double kPutFrac = 0.10;
constexpr int kPrefillWriters = 16;
/// Op deadline, far above the client's 500 us default: under back-to-back
/// rebalancing a few requests need several RPC attempts, and a request that
/// is slow must count in the latency tail, not vanish as a timeout.
constexpr Picoseconds kOpBudget = Picoseconds::from_us(5000.0);

/// Value of put number `counter` to key `id`: [id][counter][pattern], so a
/// get can prove the bytes were written for that key by some issued put.
std::vector<std::uint8_t> kv_value(std::uint64_t id, std::uint64_t counter) {
  std::vector<std::uint8_t> v(kValueBytes);
  std::memcpy(v.data(), &id, 8);
  std::memcpy(v.data() + 8, &counter, 8);
  fill_seeded(std::span(v).subspan(16), id, counter);
  return v;
}

/// True when `v` is the value of some put to `id` numbered <= max_counter.
bool kv_value_ok(const std::vector<std::uint8_t>& v, std::uint64_t id,
                 std::uint64_t max_counter, std::uint64_t* counter_out = nullptr) {
  if (v.size() != kValueBytes) return false;
  std::uint64_t got_id = 0, counter = 0;
  std::memcpy(&got_id, v.data(), 8);
  std::memcpy(&counter, v.data() + 8, 8);
  if (got_id != id || counter > max_counter) return false;
  if (counter_out != nullptr) *counter_out = counter;
  return v == kv_value(id, counter);
}

/// One open-loop KV run on a rig: key space, generator and per-request
/// checks. Requests are timed from when they were due.
class KvRun {
 public:
  KvRun(Rig& rig, Accum& acc, const RepCtx& ctx, ChunkTimer& chunks, bool ledger)
      : rig_(rig), acc_(acc), ctx_(ctx), chunks_(chunks), ledger_(ledger),
        zipf_(kKeys, kTheta), rng_(mix_seed(ctx.seed, 2)),
        drained_(rig.cl->engine()) {
    // Key i has popularity rank i for every seed: which shard holds the hot
    // keys is part of the workload, not of the seed, so seeds differ only in
    // arrival times, op mix and key draws.
    for (std::uint64_t i = 0; i < kKeys; ++i) names_.push_back("key" + std::to_string(i));
    issued_.assign(kKeys, 0);
    acked_.assign(kKeys, 0);
    put_inflight_.assign(kKeys, false);
  }

  /// Where completed-request latencies go (changed between phases).
  std::string lat_key = "e2e.lat_us";
  std::vector<OpRecord> ops;  ///< traced requests, for attribution
  std::uint64_t attempted = 0, failed = 0, completed = 0, bytes = 0;

  tcc::sim::Task<void> prefill() {
    int done = 0;
    tcc::sim::Trigger all_done(rig_.cl->engine());
    for (int w = 0; w < kPrefillWriters; ++w) {
      rig_.cl->engine().spawn_fn([this, w, &done, &all_done]() -> tcc::sim::Task<void> {
        for (std::uint64_t id = static_cast<std::uint64_t>(w); id < kKeys; id += kPrefillWriters) {
          auto r = co_await rig_.kv->put(names_[id], kv_value(id, 0));
          if (!r.ok()) {
            ++failed;
            acc_.add("fail.prefill: " + r.error().to_string(), 1);
          }
        }
        ++done;
        all_done.notify();
      });
    }
    while (done < kPrefillWriters) co_await all_done.wait();
  }

  /// Poisson arrivals at `rate_per_s` until `count` were issued (0 = until
  /// *stop); returns once every issued request has completed.
  tcc::sim::Task<void> run(double rate_per_s, std::uint64_t count, const bool* stop) {
    auto& eng = rig_.cl->engine();
    const double gap_ps = 1e12 / rate_per_s;
    double due_ps = static_cast<double>(eng.now().count());
    gen_done_ = false;
    for (std::uint64_t i = 0; count == 0 || i < count; ++i) {
      if (stop != nullptr && *stop) break;
      due_ps += rng_.exponential(gap_ps);
      const Picoseconds due{static_cast<std::int64_t>(due_ps)};
      if (due > eng.now()) co_await eng.delay(due - eng.now());
      acc_.keep_max("gen.lag_us", (eng.now() - due).microseconds());
      last_due_ = due;
      const std::uint64_t id = zipf_.next(rng_);
      bool put = rng_.uniform() < kPutFrac;
      // The ledger needs one outstanding put per key: two concurrent puts may
      // apply in either order, so a later counter could legitimately lose.
      if (put && ledger_ && put_inflight_[id]) put = false;
      const std::uint64_t counter = put ? ++issued_[id] : 0;
      ++outstanding_;
      eng.spawn_fn([this, due, id, put, counter, key = lat_key]() {
        return request(due, id, put, counter, key);
      });
    }
    gen_done_ = true;
    while (outstanding_ > 0) co_await drained_.wait();
  }

  [[nodiscard]] Picoseconds last_due() const { return last_due_; }

  /// Every acked write (prefill included) must be on both members of its
  /// shard's pair under `map`, no older than the last acked counter.
  std::uint64_t ledger_violations(const tcsvc::ShardMap& map) {
    std::uint64_t bad = 0;
    for (std::uint64_t id = 0; id < kKeys; ++id) {
      const int shard = map.shard_of(names_[id]);
      for (int owner : {map.primary(shard), map.replica(shard)}) {
        tcsvc::KvService* svc = owner >= 0 ? rig_.kv_at(owner) : nullptr;
        const auto copy = svc != nullptr ? svc->peek(names_[id]) : std::nullopt;
        std::uint64_t counter = 0;
        if (!copy.has_value() || !kv_value_ok(*copy, id, issued_[id], &counter) ||
            counter < acked_[id]) {
          ++bad;
        }
      }
    }
    return bad;
  }

 private:
  tcc::sim::Task<void> request(Picoseconds due, std::uint64_t id, bool put,
                               std::uint64_t counter, std::string key) {
    auto& eng = rig_.cl->engine();
    const double c0 = ctx_.traced ? thread_cpu_s() : 0.0;
    ++attempted;
    bool ok = false;
    std::int64_t link = -1;
    if (put) {
      put_inflight_[id] = true;
      auto r = co_await rig_.kv->put(names_[id], kv_value(id, counter), due + kOpBudget);
      if (ctx_.traced) link = last_call_span(rig_.node(rig_.client), tcsvc::kKvPut, eng.now());
      put_inflight_[id] = false;
      ok = r.ok();
      if (ok) acked_[id] = std::max(acked_[id], counter);
      if (!ok) acc_.add("fail.put: " + r.error().to_string(), 1);
    } else {
      auto r = co_await rig_.kv->get(names_[id], due + kOpBudget);
      if (ctx_.traced) link = last_call_span(rig_.node(rig_.client), tcsvc::kKvGet, eng.now());
      ok = r.ok() && kv_value_ok(r.value(), id, issued_[id]);
      if (!r.ok()) acc_.add("fail.get: " + r.error().to_string(), 1);
      if (r.ok() && !ok) acc_.add("fail.get: value not written for this key", 1);
    }
    if (ok) {
      ++completed;
      bytes += kValueBytes;
      acc_.sample(key, (eng.now() - due).microseconds());
      chunks_.tick();
      if (ctx_.traced && key == "e2e.lat_us") {
        ops.push_back({completed, put ? "put" : "get", due.count(), eng.now().count(),
                       (thread_cpu_s() - c0) * 1e6, link});
      }
    } else {
      ++failed;
    }
    if (--outstanding_ == 0 && gen_done_) drained_.notify();
  }

  Rig& rig_;
  Accum& acc_;
  const RepCtx& ctx_;
  ChunkTimer& chunks_;
  bool ledger_;
  Zipf zipf_;
  Rng rng_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> issued_, acked_;
  std::vector<bool> put_inflight_;
  std::uint64_t outstanding_ = 0;
  bool gen_done_ = false;
  Picoseconds last_due_{};
  tcc::sim::Trigger drained_;
};

/// Ring of `ring` chips: chip 0 the client, `servers` serving KV; with
/// `membership`, agents everywhere and the coordinator on chip 0.
void build_kv_rig(Rig& rig, int ring, std::vector<int> servers, bool membership,
                  Accum& acc, const RepCtx& ctx) {
  TcCluster::Options o;
  o.topology.shape = tcc::topology::ClusterShape::kRing;
  o.topology.nx = ring;
  o.topology.dram_per_chip = 64ull << 20;
  o.boot.model_code_fetch = false;
  rig.cl = create_and_boot(o, acc, ctx);
  const double c = thread_cpu_s();
  const std::int64_t s0 = rig.cl->engine().now().count();
  rig.client = 0;
  rig.servers = std::move(servers);
  rig.participants = {0};
  rig.participants.insert(rig.participants.end(), rig.servers.begin(), rig.servers.end());
  add_rpc_nodes(rig, ctx);
  tcsvc::KvConfig kv_cfg;
  auto map = tcsvc::ShardMap::from_plan(rig.cl->plan(), rig.servers, kv_cfg.shards);
  for (int chip : rig.servers) {
    auto& slot = rig.kvs[static_cast<std::size_t>(chip)];
    slot = std::make_unique<tcsvc::KvService>(*rig.cl, rig.node(chip), map, kv_cfg);
    slot->start();
  }
  rig.kv = std::make_unique<tcsvc::KvClient>(*rig.cl, rig.node(0), map, kv_cfg);
  if (membership) {
    for (int chip : rig.participants) {
      auto& agent = rig.agents[static_cast<std::size_t>(chip)];
      agent = std::make_unique<tcsvc::MembershipAgent>(*rig.cl, rig.node(chip), map);
      agent->start();
      agent->attach_service(rig.kv_at(chip));
    }
    rig.agents[0]->attach_client(rig.kv.get());
    rig.coord = std::make_unique<tcsvc::MembershipCoordinator>(*rig.cl, *rig.agents[0],
                                                               rig.participants);
    rig.coord->start();
  }
  for (int chip : rig.participants) rig.node(chip).start(rig.participants).expect("rpc start");
  note_setup("svc.start_s", c, s0, rig.cl->engine().now().count(), acc, ctx);
}

}  // namespace

void kv_zipf_read_rep(const RepCtx& ctx, Accum& acc) {
  const double cpu_setup = thread_cpu_s();
  Rig rig;
  build_kv_rig(rig, 4, {1, 2, 3}, false, acc, ctx);
  auto& eng = rig.cl->engine();
  ChunkTimer chunks(250);
  KvRun run(rig, acc, ctx, chunks, false);
  std::unique_ptr<Prober> prober;
  if (ctx.traced) {
    prober = std::make_unique<Prober>(*rig.cl, 0, rig.servers, &rig,
                                      Picoseconds::from_us(50.0), acc, ctx);
    prober->start();
  }
  const std::uint64_t count = scaled(7200, ctx.scale, 400);

  eng.spawn_fn([&]() -> tcc::sim::Task<void> {
    const double c = thread_cpu_s();
    const std::int64_t s0 = eng.now().count();
    co_await run.prefill();
    note_setup("prefill_s", c, s0, eng.now().count(), acc, ctx);
    acc.host_sample("setup_s", thread_cpu_s() - cpu_setup);
    const std::uint64_t retries0 = rig.kv->stats().retries;
    const Snapshot a = take_snapshot(*rig.cl);
    chunks.start();
    co_await run.run(1e6, count, nullptr);
    const Snapshot b = take_snapshot(*rig.cl);
    acc.add_window(a, b, *rig.cl);
    const double sim_s = static_cast<double>(b.sim_ps - a.sim_ps) * 1e-12;
    acc.add("w.ops", static_cast<double>(run.completed));
    acc.add("w.kv.client_retries", static_cast<double>(rig.kv->stats().retries - retries0));
    acc.add("e2e.ops", static_cast<double>(run.completed));
    acc.add("e2e.ops_sim_s", sim_s);
    acc.add("e2e.bytes", static_cast<double>(run.bytes));
    acc.add("e2e.bytes_sim_s", sim_s);
    if (prober) prober->stop();
    co_await measure_idle_floor(*rig.cl, acc);
    rig.stop_all();
  });
  eng.run();
  acc.add("e2e.attempted", static_cast<double>(run.attempted));
  acc.add("e2e.failed", static_cast<double>(run.failed));
  chunks.record(acc, "all");
  if (ctx.traced) attribute_ops(rig, run.ops, tcsvc::kKvReplicate, "kv.", false, acc, ctx, 3);
}

void kv_capacity_search(const RepCtx& ctx, Accum& acc) {
  Accum setup;  // set-up of the search rig is not the workload's set-up
  Rig rig;
  build_kv_rig(rig, 4, {1, 2, 3}, false, setup, RepCtx{ctx.seed, ctx.scale, false, nullptr});
  auto& eng = rig.cl->engine();
  ChunkTimer chunks(1u << 30);
  KvRun run(rig, acc, RepCtx{ctx.seed, ctx.scale, false, nullptr}, chunks, false);
  run.lat_key = "capacity.window_lat_us";
  const std::uint64_t count = scaled(2500, ctx.scale, 2000);  // p99 needs 1000

  eng.spawn_fn([&]() -> tcc::sim::Task<void> {
    co_await run.prefill();
    // One window at `krps`: passes when p99 <= 20 us (8x the unloaded p50),
    // nothing failed, and the tail drained within 50 us of the last arrival
    // (completions kept pace with arrivals).
    const auto window = [&](double krps) -> tcc::sim::Task<bool> {
      acc.dist.erase(run.lat_key);
      const std::uint64_t failed0 = run.failed;
      co_await run.run(krps * 1e3, count, nullptr);
      const auto p99 = acc.dist[run.lat_key].pct(99.0);
      const bool paced = (eng.now() - run.last_due()) <= Picoseconds::from_us(50.0);
      co_await eng.delay(Picoseconds::from_us(20.0));
      co_return run.failed == failed0 && p99.has_value() && *p99 <= 20.0 && paced;
    };
    double lo = 0.0, hi = 0.0;
    double rate = 1000.0;
    if (co_await window(rate)) {
      lo = rate;
      while (hi == 0.0 && rate < 8000.0) {
        rate *= 1.25;
        if (co_await window(rate)) lo = rate; else hi = rate;
      }
    } else {
      hi = rate;
      while (lo == 0.0 && rate > 100.0) {
        rate *= 0.8;
        if (co_await window(rate)) lo = rate; else hi = rate;
      }
    }
    for (int i = 0; i < 3 && lo > 0.0 && hi > 0.0; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (co_await window(mid)) lo = mid; else hi = mid;
    }
    acc.add("capacity.krps", lo);
    acc.dist.erase(run.lat_key);
    rig.stop_all();
  });
  eng.run();
}

void kv_rebalance_rep(const RepCtx& ctx, Accum& acc) {
  const double cpu_setup = thread_cpu_s();
  Rig rig;
  build_kv_rig(rig, 6, {1, 2, 3, 4}, true, acc, ctx);
  auto& eng = rig.cl->engine();
  ChunkTimer chunks(200);
  KvRun run(rig, acc, ctx, chunks, true);
  std::unique_ptr<Prober> prober;
  if (ctx.traced) {
    prober = std::make_unique<Prober>(*rig.cl, 0, rig.servers, &rig,
                                      Picoseconds::from_us(50.0), acc, ctx);
    prober->start();
  }
  // Drain/admit cycles run until this many in-window requests completed.
  const std::uint64_t in_window_target = scaled(2400, ctx.scale, 400);
  std::uint64_t cycles = 0, op_failures = 0, ledger_bad = 0;

  eng.spawn_fn([&]() -> tcc::sim::Task<void> {
    const double c = thread_cpu_s();
    const std::int64_t s0 = eng.now().count();
    co_await run.prefill();
    note_setup("prefill_s", c, s0, eng.now().count(), acc, ctx);
    acc.host_sample("setup_s", thread_cpu_s() - cpu_setup);
    const std::uint64_t retries0 = rig.kv->stats().retries;
    const Snapshot a = take_snapshot(*rig.cl);
    chunks.start();
    bool stop = false;
    bool load_done = false;
    tcc::sim::Trigger load_finished(eng);
    run.lat_key = "rebalance.steady_lat_us";
    eng.spawn_fn([&]() -> tcc::sim::Task<void> {
      co_await run.run(250e3, 0, &stop);
      load_done = true;
      load_finished.notify();
    });
    // Steady stretch first: the baseline the windows are compared against.
    co_await eng.delay(Picoseconds::from_us(1500.0));
    Rng pick(mix_seed(ctx.seed, 4));
    run.lat_key = "e2e.lat_us";
    while (acc.dist["e2e.lat_us"].n() < in_window_target) {
      ++cycles;
      const int s = rig.servers[pick.below(rig.servers.size())];
      for (int admit = 0; admit < 2; ++admit) {
        const std::int64_t t0 = eng.now().count();
        const double c0 = thread_cpu_s();
        const tcc::Status st = admit ? co_await rig.coord->admit(s) : co_await rig.coord->drain(s);
        if (!st.ok()) {
          ++op_failures;
          acc.add("fail.membership op: " + st.error().to_string(), 1);
        }
        const std::int64_t t1 = eng.now().count();
        acc.sample("membership.op_ms", static_cast<double>(t1 - t0) * 1e-9);
        acc.add("membership.ops", 1);
        if (ctx.spans != nullptr) {
          ctx.spans->add({admit ? "membership.admit" : "membership.drain", "chip 0 coordinator",
                          t0, t1, (thread_cpu_s() - c0) * 1e6, 0});
        }
      }
    }
    run.lat_key = "rebalance.after_lat_us";
    stop = true;
    while (!load_done) co_await load_finished.wait();
    const Snapshot b = take_snapshot(*rig.cl);
    acc.add_window(a, b, *rig.cl);
    const double sim_s = static_cast<double>(b.sim_ps - a.sim_ps) * 1e-12;
    acc.add("w.ops", static_cast<double>(run.completed));
    acc.add("w.kv.client_retries", static_cast<double>(rig.kv->stats().retries - retries0));
    acc.add("e2e.ops", static_cast<double>(run.completed));
    acc.add("e2e.ops_sim_s", sim_s);
    acc.add("e2e.bytes", static_cast<double>(run.bytes));
    acc.add("e2e.bytes_sim_s", sim_s);
    ledger_bad = run.ledger_violations(rig.agents[0]->map());
    if (prober) prober->stop();
    co_await measure_idle_floor(*rig.cl, acc);
    rig.stop_all();
  });
  eng.run();
  acc.add("e2e.attempted", static_cast<double>(run.attempted + 2 * cycles + 1));
  acc.add("e2e.failed", static_cast<double>(run.failed + op_failures + (ledger_bad > 0)));
  if (ledger_bad > 0) acc.add("fail.ledger: acked writes lost or stale", static_cast<double>(ledger_bad));
  chunks.record(acc, "all");
  if (ctx.traced) attribute_ops(rig, run.ops, tcsvc::kKvReplicate, "kv.", false, acc, ctx, 3);
}

}  // namespace pb
