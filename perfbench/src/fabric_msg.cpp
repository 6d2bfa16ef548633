// fabric_msg: the paper's two-node cable running raw tcmsg between core 0 of
// each chip. Closed-loop ping-pong at 8 B, 64 B and 1 KiB (chip 1 echoes each
// ping back on the same endpoint pair, chip 0 checks every echoed byte), then
// one-way bursts of 8 B and of 4 KiB messages. Only ht, the Opteron
// write-combining and northbridge models and tcmsg do work here; a change to
// the serving stack must leave it unchanged.
#include "workloads.hpp"

namespace pb {

using tcc::cluster::MsgEndpoint;
using tcc::cluster::RingChannel;
using tcc::cluster::TcCluster;

namespace {

struct Phase {
  const char* name;
  bool ping_pong;  ///< ping-pong (timed per message) or one-way burst
  std::uint32_t bytes;
  std::uint64_t count;
};

/// Message i of phase p: bytes derived from (seed, p, i).
void fill(std::vector<std::uint8_t>& buf, std::uint64_t seed, std::size_t p, std::uint64_t i) {
  fill_seeded(buf, seed, (static_cast<std::uint64_t>(p) << 32) | i);
}

/// send_bytes() with a deadline on each ring-sized segment, so a stopped
/// receiver cannot leave the sender waiting for credits forever.
tcc::sim::Task<tcc::Status> send_segments(MsgEndpoint& ep, std::span<const std::uint8_t> buf,
                                          Picoseconds deadline) {
  for (std::size_t off = 0; off < buf.size();) {
    const std::size_t len =
        std::min<std::size_t>(buf.size() - off, tcc::cluster::kMaxMessageBytes);
    auto s = co_await ep.send(buf.subspan(off, len), tcc::cluster::OrderingMode::kWeaklyOrdered,
                              deadline);
    if (!s.ok()) co_return s;
    off += len;
  }
  co_return tcc::Status{};
}

}  // namespace

tcc::sim::Task<void> measure_idle_floor(TcCluster& cl, Accum& acc) {
  auto& eng = cl.engine();
  co_await eng.delay(Picoseconds::from_us(10.0));  // let the tail settle
  const std::uint64_t e0 = eng.events_processed();
  const Picoseconds t0 = eng.now();
  co_await eng.delay(Picoseconds::from_us(50.0));
  acc.add("idle.events", static_cast<double>(eng.events_processed() - e0));
  acc.add("idle.sim_us", (eng.now() - t0).microseconds());
}

void fabric_msg_rep(const RepCtx& ctx, Accum& acc) {
  TcCluster::Options o;
  o.topology.shape = tcc::topology::ClusterShape::kCable;
  o.topology.nx = 2;
  o.topology.dram_per_chip = 64ull << 20;
  o.boot.model_code_fetch = false;
  // Setting up the cable takes under a millisecond, so one sample per
  // repetition is mostly noise: time twenty throwaway set-ups as well.
  std::vector<double> setups;
  for (int i = 0; i < 20; ++i) {
    const double c0 = thread_cpu_s();
    (void)create_and_boot(o, acc, RepCtx{ctx.seed, ctx.scale, false, nullptr});
    setups.push_back(thread_cpu_s() - c0);
  }
  const double cpu_setup = thread_cpu_s();
  auto cl = create_and_boot(o, acc, ctx);
  auto& eng = cl->engine();

  const double c = thread_cpu_s();
  auto* ep0 = cl->msg(0).connect(1, RingChannel::kApp).value();
  auto* ep1 = cl->msg(1).connect(0, RingChannel::kApp).value();
  note_setup("svc.start_s", c, eng.now().count(), eng.now().count(), acc, ctx);
  acc.host_sample("prefill_s", 0.0);

  // The 8 B ping-pong gives the end-to-end latency: each round trip adds its
  // two one-way latencies, read off the one simulated clock. A round trip is
  // timed by chip 0's own poll loop and so takes only a few distinct values,
  // the same quantiles at every seed; one way, the latency depends on where
  // the message meets the receiver's poll loop. The seed sets how long chip 0
  // idles before each ping (0-500 ns, inside the receiver's spin window), so
  // pings meet every phase of it, and how long each burst runs.
  Rng lengths(mix_seed(ctx.seed, 5));
  const auto burst = [&](double base) {
    return scaled(base * (1.0 + 0.05 * lengths.uniform()), ctx.scale);
  };
  const std::vector<Phase> phases = {
      {"8B", true, 8, scaled(7200, ctx.scale, 400)},
      {"64B", true, 64, scaled(1800, ctx.scale)},
      {"1KiB", true, 1024, scaled(360, ctx.scale)},
      {"burst_8B", false, 8, burst(7200)},
      {"burst_4KiB", false, 4096, burst(1800)},
  };

  // Host cost per phase: messages of unlike cost never share a chunk.
  std::vector<ChunkTimer> chunks(phases.size(), ChunkTimer(250));
  std::vector<std::int64_t> burst_end(phases.size(), 0);
  std::int64_t echoed_at = 0;  // when chip 1 received the ping and began the echo
  std::uint64_t failed = 0, attempted = 0;
  // A send or receive that fails leaves the two sides out of step, so the
  // first one stops the workload (and the run reports it); the other side
  // stops at its next deadline.
  bool aborted = false, finished = false;
  const auto abort_run = [&](const tcc::Error& e) {
    ++failed;
    if (!aborted) acc.add("fail.fabric: " + e.to_string(), 1);
    aborted = true;
  };
  const auto deadline = [&] { return eng.now() + Picoseconds::from_us(5000.0); };

  // Chip 1: echoes every ping; counts every burst message, then tells chip 0
  // the burst has arrived.
  eng.spawn_fn([&]() -> tcc::sim::Task<void> {
    const std::vector<std::uint8_t> done(8, 0);
    for (std::size_t p = 0; p < phases.size() && !aborted; ++p) {
      for (std::uint64_t i = 0; i < phases[p].count && !aborted; ++i) {
        if (phases[p].ping_pong) {
          auto r = co_await ep1->recv(deadline());
          if (!r.ok()) {
            abort_run(r.error());
            break;
          }
          echoed_at = eng.now().count();
          auto s = co_await ep1->send(r.value(), tcc::cluster::OrderingMode::kWeaklyOrdered,
                                      deadline());
          if (!s.ok()) abort_run(s.error());
          continue;
        }
        // Bursts stream like Fig. 6: the receiver releases slots after the
        // header check, so the sender and the wire set the rate. Payload bytes
        // are checked by the ping-pongs.
        std::uint32_t got = 0;
        while (got < phases[p].bytes) {  // a 4 KiB message arrives as two segments
          auto r = co_await ep1->recv_discard(deadline());
          if (!r.ok()) {
            abort_run(r.error());
            break;
          }
          got += r.value();
        }
        if (got != phases[p].bytes) ++failed;
        chunks[p].tick();
      }
      if (phases[p].ping_pong || aborted) continue;
      burst_end[p] = eng.now().count();
      auto s = co_await ep1->send(done, tcc::cluster::OrderingMode::kWeaklyOrdered, deadline());
      if (!s.ok()) abort_run(s.error());
    }
  });

  // Chip 0: sends every ping and burst, checks each echo byte for byte and
  // times it from its send.
  eng.spawn_fn([&]() -> tcc::sim::Task<void> {
    setups.push_back(thread_cpu_s() - cpu_setup);
    acc.host_sample("setup_s", median(setups));
    Rng gaps(mix_seed(ctx.seed, 1));
    const Snapshot a = take_snapshot(*cl);
    std::vector<std::uint8_t> buf;
    std::uint64_t msgs = 0;
    for (std::size_t p = 0; p < phases.size() && !aborted; ++p) {
      const Phase& ph = phases[p];
      const std::string key = std::string("fabric.half_rtt_us.") + ph.name;
      const std::int64_t phase_t0 = eng.now().count();
      chunks[p].start();
      for (std::uint64_t i = 0; i < ph.count && !aborted; ++i) {
        ++attempted;
        buf.assign(ph.bytes, 0);
        fill(buf, ctx.seed, p, i);
        if (!ph.ping_pong) {
          auto s = co_await send_segments(*ep0, buf, deadline());
          if (!s.ok()) abort_run(s.error());
          continue;
        }
        co_await eng.delay(Picoseconds{static_cast<std::int64_t>(gaps.below(500'000))});
        const std::int64_t sent = eng.now().count();
        auto s = co_await ep0->send(buf, tcc::cluster::OrderingMode::kWeaklyOrdered, deadline());
        if (!s.ok()) {
          abort_run(s.error());
          break;
        }
        auto r = co_await ep0->recv(deadline());
        if (!r.ok()) {
          abort_run(r.error());
          break;
        }
        if (r.value() != buf) {
          ++failed;
          continue;
        }
        acc.sample(key, static_cast<double>(eng.now().count() - sent) * 0.5e-6);
        if (p == 0) {
          acc.sample("e2e.lat_us", static_cast<double>(echoed_at - sent) * 1e-6);
          acc.sample("e2e.lat_us", static_cast<double>(eng.now().count() - echoed_at) * 1e-6);
        }
        chunks[p].tick();
        chunks[p].tick();  // ping and echo
        if (ctx.spans != nullptr) {
          ctx.spans->add({"client.ping_pong." + std::string(ph.name), "chip 0 client", sent,
                          eng.now().count(), 0.0, attempted});
        }
      }
      msgs += chunks[p].ops();
      if (ph.ping_pong || aborted) continue;
      auto done = co_await ep0->recv(deadline());
      if (!done.ok()) {
        abort_run(done.error());
        break;
      }
      const double sim_s = static_cast<double>(burst_end[p] - phase_t0) * 1e-12;
      if (ph.bytes == 8) {
        acc.add("e2e.ops", static_cast<double>(ph.count));
        acc.add("e2e.ops_sim_s", sim_s);
      } else {
        acc.add("e2e.bytes", static_cast<double>(ph.count) * ph.bytes);
        acc.add("e2e.bytes_sim_s", sim_s);
      }
      if (ctx.spans != nullptr) {
        ctx.spans->add({"client." + std::string(ph.name), "chip 0 client", phase_t0,
                        burst_end[p], 0.0, 0});
      }
    }
    const Snapshot b = take_snapshot(*cl);
    acc.add_window(a, b, *cl);
    acc.add("w.ops", static_cast<double>(msgs));
    co_await measure_idle_floor(*cl, acc);
    finished = true;
  });

  eng.run();
  if (!finished) ++failed;
  acc.add("e2e.attempted", static_cast<double>(attempted));
  acc.add("e2e.failed", static_cast<double>(failed));
  for (std::size_t p = 0; p < phases.size(); ++p) chunks[p].record(acc, phases[p].name);
}

}  // namespace pb
