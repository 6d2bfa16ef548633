// Rigs, probes and span bookkeeping shared by the workloads. Everything here
// drives the program through its public API; the spans are the benchmark's
// own records of calls it made, plus RpcNode::spans() read after a run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "tccluster/cluster.hpp"
#include "tcstore/store.hpp"
#include "tcsvc/membership.hpp"
#include "tcsvc/rpc.hpp"

namespace pb {

using tcc::Picoseconds;

/// What one repetition is asked to do.
struct RepCtx {
  std::uint64_t seed = 0;  ///< this repetition's input seed
  double scale = 1.0;      ///< multiplies every op count of the workload
  bool traced = false;     ///< probes + spans on
  class SpanLog* spans = nullptr;
};

// ---- spans ------------------------------------------------------------------------

/// One benchmark span: a call the benchmark made (or an RPC span it linked to
/// one), in simulated time, with the host CPU time it took.
struct Span {
  std::string name;
  std::string track;  ///< Perfetto track, e.g. "chip 0 client"
  std::int64_t start_ps = 0;
  std::int64_t end_ps = 0;
  double host_us = 0.0;
  std::uint64_t req = 0;  ///< client request id (0 = none)
};

/// Spans kept in memory and written once, at the end, as a Chrome trace.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap) : cap_(cap) {}
  void add(Span s);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] tcc::Status write(const std::string& path) const;

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// ---- serving rig ------------------------------------------------------------------

/// A booted cluster with RPC nodes on the participating chips, indexed by
/// chip with null holes.
struct Rig {
  std::unique_ptr<tcc::cluster::TcCluster> cl;
  int client = 0;
  std::vector<int> servers;
  std::vector<int> participants;  ///< client first, then servers
  std::vector<std::unique_ptr<tcc::tcsvc::RpcNode>> nodes;
  std::vector<std::unique_ptr<tcc::tcsvc::KvService>> kvs;
  std::vector<std::unique_ptr<tcc::tcstore::StoreService>> stores;
  std::vector<std::unique_ptr<tcc::tcsvc::MembershipAgent>> agents;
  std::unique_ptr<tcc::tcsvc::KvClient> kv;
  std::unique_ptr<tcc::tcstore::StoreClient> store;
  std::unique_ptr<tcc::tcsvc::MembershipCoordinator> coord;

  tcc::tcsvc::RpcNode& node(int chip) { return *nodes.at(static_cast<std::size_t>(chip)); }
  tcc::tcsvc::KvService* kv_at(int chip) { return kvs.at(static_cast<std::size_t>(chip)).get(); }
  void stop_all();
};

/// Create + boot a cluster, timing both calls into `acc` (topology.create_s,
/// firmware.boot_s) and the trace.
std::unique_ptr<tcc::cluster::TcCluster> create_and_boot(
    tcc::cluster::TcCluster::Options opt, Accum& acc, const RepCtx& ctx);

/// RPC nodes on every participant (span log sized for a traced run).
void add_rpc_nodes(Rig& rig, const RepCtx& ctx);

/// Record the host CPU seconds of one set-up step (since `cpu0`) as a
/// per-layer sample and a span.
void note_setup(const char* name, double cpu0, std::int64_t sim0_ps, std::int64_t sim1_ps,
                Accum& acc, const RepCtx& ctx);

// ---- probes -------------------------------------------------------------------------

/// Low-rate probes from the client chip to each server through three layers
/// in turn: a raw tcmsg ring, a tcrel ring (both on channels the serving stack
/// never opens), and an echo method registered on the RPC nodes. Round trips
/// land in acc as probe.tcmsg_rtt_us / probe.tcrel_rtt_us / probe.rpc_rtt_us.
class Prober {
 public:
  static constexpr std::uint16_t kEchoMethod = 90;
  Prober(tcc::cluster::TcCluster& cl, int client, std::vector<int> servers,
         Rig* rig, Picoseconds period, Accum& acc, const RepCtx& ctx);
  /// Register echo handlers and spawn responders + the probe loop.
  void start();
  /// Ask every probe process to exit (within 20 simulated microseconds).
  void stop() { stop_ = true; }

 private:
  tcc::sim::Task<void> loop();
  tcc::cluster::TcCluster& cl_;
  int client_;
  std::vector<int> servers_;
  Rig* rig_;
  Picoseconds period_;
  Accum& acc_;
  const RepCtx& ctx_;
  bool stop_ = false;
};

// ---- RPC span linking ------------------------------------------------------------------

/// A client op the benchmark issued, linked to the RPC client span of its final
/// attempt (index into the client node's spans()).
struct OpRecord {
  std::uint64_t req = 0;
  std::string kind;  ///< get / put / incr / cas / append / set
  std::int64_t start_ps = 0;  ///< when the op was due (open loop) or issued
  std::int64_t end_ps = 0;
  double host_us = 0.0;
  std::int64_t rpc_index = -1;
};

/// Index of the RPC client span `node` recorded for the call that just
/// returned to the caller, or -1 when the newest span is not that call.
std::int64_t last_call_span(const tcc::tcsvc::RpcNode& node, std::uint16_t method,
                            Picoseconds now);

/// Split each linked op into parts that add up to its latency:
///   unattributed = op - RPC client span (client routing, retries, queueing)
///   transport    = RPC client span - server handler span
///   handler      = handler span - replicate calls it made
///   replicate    = union of the replicate call spans inside the handler
/// Parts land in acc under "<prefix>handler_us.<kind>", "rpc.transport_us",
/// "<prefix>replicate_wait_us" and "kv.unattributed_us"; a part that comes
/// out negative or a sum that misses the op latency counts in
/// "trace.budget_violations". Also writes the ops' spans into the span log
/// (the first `detail_ops` with nested per-request tracks).
void attribute_ops(Rig& rig, const std::vector<OpRecord>& ops,
                   std::uint16_t replicate_method, const std::string& prefix,
                   bool replicate_is_handler_part, Accum& acc, const RepCtx& ctx,
                   std::size_t detail_ops);

}  // namespace pb
