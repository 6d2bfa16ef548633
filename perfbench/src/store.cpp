// store_rmw_torus: a 2x2x2 torus of 4-chip Supernodes (32 chips). The client
// sits on Supernode 0 and three servers on Supernodes 1-3, so every op and
// every replication frame crosses the torus. Sixteen closed-loop client tasks
// issue a write-only mix of incr, cas, append and set over a hot set of 256
// keys; every kScanEvery ops one task pages an ordered scan across all shards.
// Every op is a read-modify-write under a stripe lock, replicated as a
// logical frame over multi-hop routes: the write-side, multi-hop counterpart
// of kv_zipf_read.
#include <algorithm>
#include <cstring>

#include "workloads.hpp"

namespace pb {

using tcc::cluster::TcCluster;
namespace tcsvc = tcc::tcsvc;
namespace tcstore = tcc::tcstore;

namespace {

constexpr int kTasks = 16;
constexpr int kCounters = 64;   // incr
constexpr int kCasKeys = 64;    // cas
constexpr int kLogKeys = 128;   // append + set (a set resets what appends grew)
constexpr std::size_t kValueBytes = 64;
constexpr std::size_t kAppendBytes = 16;
constexpr std::uint64_t kScanEvery = 400;

std::string key_name(char kind, int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%c%03d", kind, i);
  return buf;
}

std::vector<std::uint8_t> pattern(std::uint64_t seed, std::uint64_t op, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  fill_seeded(v, seed, op);
  return v;
}

struct CasSuccess {
  std::uint64_t expected = 0;
  std::uint64_t version = 0;
};

}  // namespace

void store_rmw_torus_rep(const RepCtx& ctx, Accum& acc) {
  const double cpu_setup = thread_cpu_s();
  TcCluster::Options o;
  o.topology.shape = tcc::topology::ClusterShape::kTorus3D;
  o.topology.nx = 2;
  o.topology.ny = 2;
  o.topology.nz = 2;
  o.topology.supernode_size = 4;
  o.topology.dram_per_chip = 16ull << 20;
  o.boot.model_code_fetch = false;
  Rig rig;
  rig.cl = create_and_boot(o, acc, ctx);
  auto& eng = rig.cl->engine();

  const double c = thread_cpu_s();
  const std::int64_t s0 = eng.now().count();
  const auto& sns = rig.cl->plan().supernodes();
  rig.client = sns[0].chips[0];
  for (int sn : {1, 2, 3}) rig.servers.push_back(sns[static_cast<std::size_t>(sn)].chips[0]);
  rig.participants = {rig.client};
  rig.participants.insert(rig.participants.end(), rig.servers.begin(), rig.servers.end());
  add_rpc_nodes(rig, ctx);
  tcsvc::KvConfig kv_cfg;
  tcstore::StoreConfig st_cfg;
  const auto map = tcsvc::ShardMap::from_plan(rig.cl->plan(), rig.servers, kv_cfg.shards);
  for (int chip : rig.servers) {
    const auto i = static_cast<std::size_t>(chip);
    rig.kvs[i] = std::make_unique<tcsvc::KvService>(*rig.cl, rig.node(chip), map, kv_cfg);
    rig.kvs[i]->start();
    rig.stores[i] = std::make_unique<tcstore::StoreService>(*rig.cl, rig.node(chip),
                                                            *rig.kvs[i], st_cfg);
    rig.stores[i]->start();
  }
  for (int chip : rig.participants) rig.node(chip).start(rig.participants).expect("rpc start");
  rig.store = std::make_unique<tcstore::StoreClient>(*rig.cl, rig.node(rig.client), map, st_cfg);
  note_setup("svc.start_s", c, s0, eng.now().count(), acc, ctx);

  std::vector<std::string> counters, cas_keys, logs;
  for (int i = 0; i < kCounters; ++i) counters.push_back(key_name('c', i));
  for (int i = 0; i < kCasKeys; ++i) cas_keys.push_back(key_name('x', i));
  for (int i = 0; i < kLogKeys; ++i) logs.push_back(key_name('l', i));
  // Expected scan result: every key, grouped by shard, in key order.
  std::vector<std::vector<std::string>> shard_keys(static_cast<std::size_t>(map.shards()));
  for (const auto* group : {&counters, &cas_keys, &logs}) {
    for (const std::string& k : *group) {
      shard_keys[static_cast<std::size_t>(map.shard_of(k))].push_back(k);
    }
  }
  for (auto& keys : shard_keys) std::sort(keys.begin(), keys.end());

  std::unique_ptr<Prober> prober;
  if (ctx.traced) {
    prober = std::make_unique<Prober>(*rig.cl, rig.client, rig.servers, &rig,
                                      Picoseconds::from_us(50.0), acc, ctx);
    prober->start();
  }

  const std::uint64_t budget = scaled(9600, ctx.scale, 400);
  ChunkTimer chunks(200);
  std::vector<std::uint64_t> acked(kCounters, 0), ambiguous(kCounters, 0);
  std::vector<std::uint64_t> cas_known(kCasKeys, 0), cas_prefill(kCasKeys, 0);
  std::vector<std::vector<CasSuccess>> cas_ok(kCasKeys);
  std::uint64_t issued = 0, attempted = 0, failed = 0, completed = 0, bytes = 0;
  std::uint64_t cas_ops = 0, cas_wins = 0, scans = 0;
  std::vector<OpRecord> ops;
  int running = 0;
  tcc::sim::Trigger tasks_done(eng);

  double dedup_peak = 0.0;
  const auto full_scan = [&]() -> tcc::sim::Task<bool> {
    for (int chip : rig.servers) {
      dedup_peak = std::max(dedup_peak, static_cast<double>(
          rig.stores[static_cast<std::size_t>(chip)]->dedup_records()));
    }
    bool ok = true;
    for (int shard = 0; shard < map.shards(); ++shard) {
      ++attempted;
      auto r = co_await rig.store->scan_shard(shard);
      std::vector<std::string> got;
      if (r.ok()) {
        for (const auto& e : r.value()) got.push_back(e.key);
      }
      // Every live key of the shard, in strictly ascending order.
      if (!r.ok() || got != shard_keys[static_cast<std::size_t>(shard)]) {
        ok = false;
        ++failed;
      }
    }
    ++scans;
    co_return ok;
  };

  const auto task = [&](int t) -> tcc::sim::Task<void> {
    Rng rng(mix_seed(ctx.seed, 10, static_cast<std::uint64_t>(t)));
    while (issued < budget) {
      const std::uint64_t op_id = ++issued;
      if (op_id % kScanEvery == 0) {
        (void)co_await full_scan();
        continue;
      }
      ++attempted;
      const double u = rng.uniform();
      const std::int64_t t0 = eng.now().count();
      const double c0 = ctx.traced ? thread_cpu_s() : 0.0;
      bool ok = false;
      std::size_t written = 0;
      const char* kind = "";
      std::uint16_t method = tcstore::kStoreOp;
      std::int64_t link = -1;
      if (u < 0.25) {
        kind = "incr";
        const auto i = static_cast<std::size_t>(rng.below(kCounters));
        auto r = co_await rig.store->incr(counters[i], 1);
        if (ctx.traced) link = last_call_span(rig.node(rig.client), method, eng.now());
        ok = r.ok();
        (ok ? acked : ambiguous)[i] += 1;
        written = 8;
      } else if (u < 0.5) {
        kind = "cas";
        const auto i = static_cast<std::size_t>(rng.below(kCasKeys));
        const std::uint64_t expected = cas_known[i];
        auto r = co_await rig.store->cas(cas_keys[i], expected,
                                         pattern(ctx.seed, op_id, kValueBytes));
        if (ctx.traced) link = last_call_span(rig.node(rig.client), method, eng.now());
        ok = r.ok();
        ++cas_ops;
        if (ok && r.value().success) {
          ++cas_wins;
          cas_ok[i].push_back({expected, r.value().version});
          // Another task may already know a newer version; never go back.
          cas_known[i] = std::max(cas_known[i], r.value().version);
          written = kValueBytes;
        } else if (ok) {
          cas_known[i] = std::max(cas_known[i], r.value().version);
        }
      } else if (u < 0.75) {
        kind = "append";
        const auto i = static_cast<std::size_t>(rng.below(kLogKeys));
        auto r = co_await rig.store->append(logs[i], pattern(ctx.seed, op_id, kAppendBytes));
        if (ctx.traced) link = last_call_span(rig.node(rig.client), method, eng.now());
        ok = r.ok();
        written = kAppendBytes;
      } else {
        kind = "set";
        const auto i = static_cast<std::size_t>(rng.below(kLogKeys));
        auto r = co_await rig.store->set(logs[i], pattern(ctx.seed, op_id, kValueBytes));
        if (ctx.traced) link = last_call_span(rig.node(rig.client), method, eng.now());
        ok = r.ok();
        written = kValueBytes;
      }
      if (!ok) {
        ++failed;
        continue;
      }
      ++completed;
      bytes += written;
      acc.sample("e2e.lat_us", static_cast<double>(eng.now().count() - t0) * 1e-6);
      chunks.tick();
      if (ctx.traced) {
        ops.push_back({completed, kind, t0, eng.now().count(), (thread_cpu_s() - c0) * 1e6, link});
      }
    }
    --running;
    tasks_done.notify();
  };

  eng.spawn_fn([&]() -> tcc::sim::Task<void> {
    // Prefill: every key exists before the window, so scans know the live set.
    const double c0 = thread_cpu_s();
    const std::int64_t p0 = eng.now().count();
    for (std::size_t i = 0; i < counters.size(); ++i) {
      const std::vector<std::uint8_t> zero(8, 0);
      if (!(co_await rig.store->set(counters[i], zero)).ok()) ++failed;
      auto r = co_await rig.store->cas(cas_keys[i], 0, pattern(ctx.seed, i, kValueBytes));
      if (!r.ok() || !r.value().success) {
        ++failed;
      } else {
        cas_known[i] = cas_prefill[i] = r.value().version;
      }
    }
    for (std::size_t i = 0; i < logs.size(); ++i) {
      if (!(co_await rig.store->set(logs[i], pattern(ctx.seed, i, kValueBytes))).ok()) ++failed;
    }
    note_setup("prefill_s", c0, p0, eng.now().count(), acc, ctx);
    acc.host_sample("setup_s", thread_cpu_s() - cpu_setup);

    const Snapshot a = take_snapshot(*rig.cl);
    chunks.start();
    running = kTasks;
    for (int t = 0; t < kTasks; ++t) {
      eng.spawn_fn([&, t]() -> tcc::sim::Task<void> { co_await task(t); });
    }
    while (running > 0) co_await tasks_done.wait();
    const Snapshot b = take_snapshot(*rig.cl);
    acc.add_window(a, b, *rig.cl);
    const double sim_s = static_cast<double>(b.sim_ps - a.sim_ps) * 1e-12;
    acc.add("w.ops", static_cast<double>(completed));
    acc.add("e2e.ops", static_cast<double>(completed));
    acc.add("e2e.ops_sim_s", sim_s);
    acc.add("e2e.bytes", static_cast<double>(bytes));
    acc.add("e2e.bytes_sim_s", sim_s);
    if (prober) prober->stop();
    co_await measure_idle_floor(*rig.cl, acc);
    rig.stop_all();
  });
  eng.run();

  // Counters: both copies lie in [acked, acked + ambiguous].
  for (int i = 0; i < kCounters; ++i) {
    const int shard = map.shard_of(counters[static_cast<std::size_t>(i)]);
    for (int owner : {map.primary(shard), map.replica(shard)}) {
      const auto v = rig.kv_at(owner)->peek(counters[static_cast<std::size_t>(i)]);
      std::uint64_t n = 0;
      if (v.has_value() && v->size() == 8) std::memcpy(&n, v->data(), 8);
      const auto iu = static_cast<std::size_t>(i);
      if (!v.has_value() || v->size() != 8 || n < acked[iu] || n > acked[iu] + ambiguous[iu]) {
        std::fprintf(stderr, "check: counter %s on chip %d (%s) holds %llu, acked %llu + %llu "
                     "ambiguous\n", counters[iu].c_str(), owner,
                     owner == map.primary(shard) ? "primary" : "replica",
                     static_cast<unsigned long long>(n),
                     static_cast<unsigned long long>(acked[iu]),
                     static_cast<unsigned long long>(ambiguous[iu]));
        ++failed;
      }
    }
  }
  // CAS: the successes on a key form one chain of strictly increasing
  // versions, each expecting the previous one, ending at the stored version.
  for (int i = 0; i < kCasKeys; ++i) {
    auto& chain = cas_ok[static_cast<std::size_t>(i)];
    std::sort(chain.begin(), chain.end(),
              [](const CasSuccess& x, const CasSuccess& y) { return x.version < y.version; });
    std::uint64_t prev = cas_prefill[static_cast<std::size_t>(i)];
    for (const CasSuccess& s : chain) {
      if (s.version <= prev || s.expected != prev) ++failed;
      prev = s.version;
    }
    const std::string& k = cas_keys[static_cast<std::size_t>(i)];
    const int shard = map.shard_of(k);
    if (!chain.empty() && rig.kv_at(map.primary(shard))->version_of(k) != chain.back().version) {
      ++failed;
    }
  }

  acc.add("e2e.attempted", static_cast<double>(attempted));
  acc.add("e2e.failed", static_cast<double>(failed));
  acc.add("store.cas_ops", static_cast<double>(cas_ops));
  acc.add("store.cas_wins", static_cast<double>(cas_wins));
  acc.add("store.full_scans", static_cast<double>(scans));
  acc.keep_max("store.dedup_records_peak", dedup_peak);
  chunks.record(acc, "all");
  if (ctx.traced) {
    attribute_ops(rig, ops, tcstore::kStoreReplicateOp, "store.", true, acc, ctx, 0);
  }
}

}  // namespace pb
