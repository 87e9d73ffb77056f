// The three workloads and the node topologies they run on.
//
//   inproc  QM1 (sender) and QM2 (receivers) in this process, memory
//           stores, in-process channels both ways; the ReceiverPool runs
//           here.
//   tcp     QM1 here, QM2 in a child process (fork+exec of this binary
//           with --child); data goes out over a TCP TransportChannel and
//           acks come back over another one; segmented stores (fsync
//           every 100 ms) on both nodes; the ReceiverPool runs in the
//           child, which reports its numbers over a pipe when stopped.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cm/control.hpp"
#include "cm/sender.hpp"
#include "mq/transport/transport_channel.hpp"
#include "receivers.hpp"

namespace cmbench {

struct WorkloadSpec {
  const char* name;
  bool tcp;                // durable_tcp topology
  int legs;                // fan-out
  std::size_t body_bytes;
  bool compensate;         // max_nr_pick_up(1) set + application compensation
  bool transactional;      // receivers read inside begin_tx/commit_tx
  double paced_rate;       // msgs/s offered in the paced phase
  std::uint64_t window;    // in-flight messages in the saturating phase
  cmx::cm::Outcome expected;
};

const WorkloadSpec* find_workload(const std::string& name);

// The condition every message of the workload carries.
cmx::cm::ConditionPtr make_condition(const WorkloadSpec& spec);

// What the receiving side reports when a phase is over.
struct ReceiverSide {
  PoolReport pool;
  std::size_t rlog_depth = 0;        // DS.RLOG.Q on the receiver node
  double rss_mb = 0.0;               // child VmHWM (0 in-process)
  std::uint64_t store_appends = 0;   // child obs counters (traced)
  std::uint64_t store_fsyncs = 0;
  bool ok = true;                    // child ran and reported cleanly
};

class Topology {
 public:
  virtual ~Topology() = default;
  virtual cmx::cm::ConditionalMessagingService& sender() = 0;
  virtual cmx::mq::QueueManager& sender_qm() = 0;
  // Data-path TCP channel (tcp topology only).
  virtual cmx::mq::transport::TransportChannel* data_channel() {
    return nullptr;
  }
  // Lets the receivers handle `compensations` compensations, stops them
  // and collects their report. Call once, after the phase has drained.
  virtual ReceiverSide stop_receivers(std::uint64_t compensations) = 0;
};

struct TopologyOptions {
  std::string workdir;  // segmented store directories (tcp)
  bool traced = false;
  int instance = 0;     // unique per topology within a run
};

std::unique_ptr<Topology> make_topology(const WorkloadSpec& spec,
                                        const TopologyOptions& options);

// Entry point of the durable_tcp receiver node (`--child ...`).
int run_child(int argc, char** argv);

}  // namespace cmbench
