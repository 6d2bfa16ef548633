#include "serving.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "telemetry/chrome_trace.hpp"

namespace pb {

using tcc::cluster::RingChannel;
using tcc::cluster::TcCluster;

// ---- spans -----------------------------------------------------------------------------

void SpanLog::add(Span s) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(s));
}

tcc::Status SpanLog::write(const std::string& path) const {
  tcc::telemetry::ChromeTraceWriter w;
  std::map<std::string, int> pids;
  for (const Span& s : spans_) {
    auto [it, fresh] = pids.emplace(s.track, static_cast<int>(pids.size()) + 1);
    if (fresh) w.set_process_name(it->second, s.track);
    w.complete(it->second, 0, s.start_ps, s.end_ps - s.start_ps, s.name, "perfbench",
               {tcc::telemetry::ChromeTraceWriter::arg_num("req", s.req),
                tcc::telemetry::ChromeTraceWriter::arg_num("host_us", s.host_us)});
  }
  return w.write(path);
}

// ---- rig ---------------------------------------------------------------------------------

void Rig::stop_all() {
  for (auto& n : nodes) {
    if (n) n->stop();
  }
}

void note_setup(const char* name, double cpu0, std::int64_t sim0_ps, std::int64_t sim1_ps,
                Accum& acc, const RepCtx& ctx) {
  const double cpu_s = thread_cpu_s() - cpu0;
  acc.host_sample(name, cpu_s);
  if (ctx.spans != nullptr) ctx.spans->add({name, "set-up", sim0_ps, sim1_ps, cpu_s * 1e6, 0});
}

std::unique_ptr<TcCluster> create_and_boot(TcCluster::Options opt, Accum& acc,
                                           const RepCtx& ctx) {
  double c = thread_cpu_s();
  auto cl = TcCluster::create(std::move(opt)).value();
  note_setup("topology.create_s", c, 0, 0, acc, ctx);
  c = thread_cpu_s();
  const std::int64_t s0 = cl->engine().now().count();
  cl->boot().expect("boot");
  note_setup("firmware.boot_s", c, s0, cl->engine().now().count(), acc, ctx);
  return cl;
}

void add_rpc_nodes(Rig& rig, const RepCtx& ctx) {
  tcc::tcsvc::RpcConfig cfg;
  // A traced run links every op to its RPC spans, so none may be dropped.
  if (ctx.traced) cfg.max_spans = std::size_t{1} << 22;
  const auto n = static_cast<std::size_t>(rig.cl->num_nodes());
  rig.nodes.resize(n);
  rig.kvs.resize(n);
  rig.stores.resize(n);
  rig.agents.resize(n);
  for (int chip : rig.participants) {
    rig.nodes[static_cast<std::size_t>(chip)] =
        std::make_unique<tcc::tcsvc::RpcNode>(*rig.cl, chip, cfg);
  }
}

// ---- probes ---------------------------------------------------------------------------------

Prober::Prober(TcCluster& cl, int client, std::vector<int> servers, Rig* rig,
               Picoseconds period, Accum& acc, const RepCtx& ctx)
    : cl_(cl), client_(client), servers_(std::move(servers)), rig_(rig),
      period_(period), acc_(acc), ctx_(ctx) {}

void Prober::start() {
  auto& eng = cl_.engine();
  // Responders wake at least this often to notice stop(); long enough that an
  // idle responder settles into the receive poll backoff instead of spinning.
  const Picoseconds slice = Picoseconds::from_us(20.0);
  for (int s : servers_) {
    if (rig_ != nullptr) {
      rig_->node(s).handle(kEchoMethod,
                           [](const tcc::tcsvc::RpcContext&, std::span<const std::uint8_t> body)
                               -> tcc::sim::Task<tcc::Result<std::vector<std::uint8_t>>> {
                             co_return std::vector<std::uint8_t>(body.begin(), body.end());
                           });
    }
    (void)cl_.msg(client_).connect(s, RingChannel::kPgasRequest).value();
    (void)cl_.rel(client_).connect(s, RingChannel::kPgasResponse).value();
    auto* msg = cl_.msg(s).connect(client_, RingChannel::kPgasRequest).value();
    auto* rel = cl_.rel(s).connect(client_, RingChannel::kPgasResponse).value();
    eng.spawn_fn([this, msg, slice, &eng]() -> tcc::sim::Task<void> {
      while (!stop_) {
        auto r = co_await msg->recv(eng.now() + slice);
        if (r.ok()) (void)co_await msg->send(r.value());
      }
    });
    eng.spawn_fn([this, rel, slice, &eng]() -> tcc::sim::Task<void> {
      while (!stop_) {
        auto r = co_await rel->recv(eng.now() + slice);
        if (r.ok()) (void)co_await rel->send(r.value());
      }
    });
  }
  eng.spawn_fn([this]() -> tcc::sim::Task<void> { co_await loop(); });
}

tcc::sim::Task<void> Prober::loop() {
  auto& eng = cl_.engine();
  const Picoseconds budget = Picoseconds::from_us(200.0);
  std::vector<std::uint8_t> payload(8);
  std::uint64_t n = 0;
  while (!stop_) {
    co_await eng.delay(period_);
    for (int s : servers_) {
      if (stop_) break;
      // One probe per layer, lowest first; the payload names the probe so a
      // stale echo can never pass as a fresh one.
      for (int layer = 0; layer < 3; ++layer) {
        if (layer == 2 && rig_ == nullptr) break;
        ++n;
        for (int i = 0; i < 8; ++i) payload[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(n >> (8 * i));
        const std::int64_t t0 = eng.now().count();
        const double c0 = thread_cpu_s();
        bool ok = false;
        if (layer == 0) {
          auto* ep = cl_.msg(client_).connect(s, RingChannel::kPgasRequest).value();
          if ((co_await ep->send(payload, tcc::cluster::OrderingMode::kWeaklyOrdered,
                                 eng.now() + budget)).ok()) {
            auto r = co_await ep->recv(eng.now() + budget);
            ok = r.ok() && r.value() == payload;
          }
        } else if (layer == 1) {
          auto* ep = cl_.rel(client_).connect(s, RingChannel::kPgasResponse).value();
          if ((co_await ep->send(payload, eng.now() + budget)).ok()) {
            auto r = co_await ep->recv(eng.now() + budget);
            ok = r.ok() && r.value() == payload;
          }
        } else {
          auto r = co_await rig_->node(client_).call(s, kEchoMethod, payload);
          ok = r.ok() && r.value() == payload;
        }
        static const char* const kNames[] = {"probe.tcmsg_rtt_us", "probe.tcrel_rtt_us",
                                             "probe.rpc_rtt_us"};
        acc_.add("probe.attempted", 1);
        if (!ok) {
          acc_.add("probe.failed", 1);
          continue;
        }
        const std::int64_t t1 = eng.now().count();
        acc_.sample(kNames[layer], static_cast<double>(t1 - t0) * 1e-6);
        if (ctx_.spans != nullptr) {
          ctx_.spans->add({kNames[layer], "chip " + std::to_string(client_) + " probes",
                           t0, t1, (thread_cpu_s() - c0) * 1e6, 0});
        }
      }
    }
  }
}

// ---- RPC span linking -----------------------------------------------------------------------

std::int64_t last_call_span(const tcc::tcsvc::RpcNode& node, std::uint16_t method,
                            Picoseconds now) {
  const auto& sp = node.spans();
  if (sp.empty()) return -1;
  const auto& s = sp.back();
  if (s.server || s.method != method || s.end != now || !s.ok) return -1;
  return static_cast<std::int64_t>(sp.size()) - 1;
}

namespace {

/// Length of the union of [start, end) intervals.
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_s = 0, cur_e = -1;
  for (const auto& [s, e] : iv) {
    if (s > cur_e) {
      if (cur_e > cur_s) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) total += cur_e - cur_s;
  return total;
}

/// Per server chip: handler spans by (caller, corr), and the replicate calls
/// each handler made. A replicate call is assigned to the innermost handler
/// span on the same chip that contains it.
struct ServerIndex {
  std::unordered_map<std::uint64_t, std::size_t> handler_by_call;
  std::unordered_map<std::size_t, std::vector<std::size_t>> replicates;
};

ServerIndex index_server(const tcc::tcsvc::RpcNode& node, std::uint16_t replicate_method) {
  ServerIndex ix;
  const auto& sp = node.spans();
  std::vector<std::size_t> handlers, reps;
  for (std::size_t i = 0; i < sp.size(); ++i) {
    if (sp[i].server) {
      ix.handler_by_call[(static_cast<std::uint64_t>(sp[i].peer) << 32) | sp[i].corr] = i;
      handlers.push_back(i);
    } else if (sp[i].method == replicate_method) {
      reps.push_back(i);
    }
  }
  const auto by_start = [&](std::size_t a, std::size_t b) {
    return sp[a].start < sp[b].start || (sp[a].start == sp[b].start && a < b);
  };
  std::sort(handlers.begin(), handlers.end(), by_start);
  for (std::size_t r : reps) {
    auto it = std::upper_bound(handlers.begin(), handlers.end(), r,
                               [&](std::size_t key, std::size_t h) {
                                 return sp[key].start < sp[h].start;
                               });
    // Scan back over the few handlers that started just before the call.
    for (int k = 0; k < 64 && it != handlers.begin(); ++k) {
      --it;
      const auto& h = sp[*it];
      if (h.method != replicate_method && h.start <= sp[r].start && sp[r].end <= h.end) {
        ix.replicates[*it].push_back(r);
        break;
      }
    }
  }
  return ix;
}

}  // namespace

void attribute_ops(Rig& rig, const std::vector<OpRecord>& ops,
                   std::uint16_t replicate_method, const std::string& prefix,
                   bool replicate_is_handler_part, Accum& acc, const RepCtx& ctx,
                   std::size_t detail_ops) {
  const auto& csp = rig.node(rig.client).spans();
  std::map<int, ServerIndex> servers;
  for (int chip : rig.participants) {
    if (chip == rig.client) continue;
    servers.emplace(chip, index_server(rig.node(chip), replicate_method));
  }
  const std::string client_track = "chip " + std::to_string(rig.client) + " client";
  std::size_t detailed = 0;
  for (const OpRecord& op : ops) {
    if (op.rpc_index < 0) {
      acc.add("trace.unlinked_ops", 1);
      continue;
    }
    const auto& cs = csp[static_cast<std::size_t>(op.rpc_index)];
    auto sit = servers.find(cs.peer);
    if (sit == servers.end()) {
      acc.add("trace.unlinked_ops", 1);
      continue;
    }
    const auto& ssp = rig.node(cs.peer).spans();
    auto hit = sit->second.handler_by_call.find(
        (static_cast<std::uint64_t>(rig.client) << 32) | cs.corr);
    if (hit == sit->second.handler_by_call.end()) {
      acc.add("trace.unlinked_ops", 1);
      continue;
    }
    const auto& hs = ssp[hit->second];
    std::vector<std::pair<std::int64_t, std::int64_t>> rep_iv;
    auto rit = sit->second.replicates.find(hit->second);
    if (rit != sit->second.replicates.end()) {
      for (std::size_t r : rit->second) rep_iv.emplace_back(ssp[r].start.count(), ssp[r].end.count());
    }
    const std::int64_t op_ps = op.end_ps - op.start_ps;
    const std::int64_t rpc_ps = (cs.end - cs.start).count();
    const std::int64_t h_ps = (hs.end - hs.start).count();
    const std::int64_t rep_ps = replicate_is_handler_part ? 0 : union_length(rep_iv);
    const std::int64_t unattributed = op_ps - rpc_ps;
    const std::int64_t transport = rpc_ps - h_ps;
    const std::int64_t handler = h_ps - rep_ps;
    const bool sound = unattributed >= 0 && transport >= 0 && handler >= 0 && rep_ps >= 0 &&
                       unattributed + transport + handler + rep_ps == op_ps &&
                       cs.start.count() >= op.start_ps && cs.end.count() <= op.end_ps &&
                       hs.start >= cs.start && hs.end <= cs.end;
    acc.add("trace.linked_ops", 1);
    if (!sound) {
      acc.add("trace.budget_violations", 1);
      continue;
    }
    acc.sample(prefix + "unattributed_us", static_cast<double>(unattributed) * 1e-6);
    acc.sample("rpc.transport_us", static_cast<double>(transport) * 1e-6);
    acc.sample(prefix + "handler_us." + op.kind, static_cast<double>(handler) * 1e-6);
    if (!replicate_is_handler_part && (op.kind == "put")) {
      acc.sample(prefix + "replicate_wait_us", static_cast<double>(rep_ps) * 1e-6);
    }
    if (ctx.spans == nullptr) continue;
    // The first few ops get a track of their own so the viewer nests the
    // client op, its RPC, the handler and its replicate calls; the rest go on
    // per-chip tracks.
    const bool detail = detailed < detail_ops && op.kind == "put";
    if (detail) ++detailed;
    const std::string req_track = "request " + std::to_string(op.req) + " (" + op.kind + ")";
    const std::string server = "chip " + std::to_string(cs.peer);
    ctx.spans->add({"client." + op.kind, detail ? req_track : client_track, op.start_ps,
                    op.end_ps, op.host_us, op.req});
    ctx.spans->add({"rpc.call", detail ? req_track : client_track + " rpc", cs.start.count(),
                    cs.end.count(), 0.0, op.req});
    ctx.spans->add({prefix + "handler." + op.kind, detail ? req_track : server + " handler",
                    hs.start.count(), hs.end.count(), 0.0, op.req});
    for (const auto& [s, e] : rep_iv) {
      ctx.spans->add({prefix + "replicate", detail ? req_track : server + " replicate", s, e,
                      0.0, op.req});
    }
  }
}

}  // namespace pb
