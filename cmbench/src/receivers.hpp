// ReceiverPool: the benchmark's receiving application. Two threads read
// the destination legs through cm::ConditionalReceiver with non-blocking
// read_message calls (optionally inside begin_tx/commit_tx), sweeping
// their legs until all are empty and then sleeping until a put on one of
// them (queue put listener) wakes them. The same pool runs in-process for
// the inproc workloads and inside the child node for durable_tcp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "mq/queue_manager.hpp"

namespace cmbench {

struct Leg {
  std::string queue;
  std::string recipient;
};

// One successful read of a conditional data message (traced runs only).
struct ReadSpan {
  std::string cm_id;
  std::int64_t start_ns = 0;  // read_message called
  std::int64_t end_ns = 0;    // read_message returned
  std::int64_t ack_ns = 0;    // ack sent: end_ns, or commit_tx returned
};

struct PoolReport {
  std::uint64_t polls = 0;
  std::uint64_t idle_polls = 0;   // polls that returned no message
  std::uint64_t data_reads = 0;   // conditional data messages delivered
  std::uint64_t duplicates = 0;   // data messages whose id was seen before
  std::uint64_t read_errors = 0;  // errors other than "nothing to read"
  std::uint64_t unexpected = 0;   // message kinds the workloads never send
  // cm::ReceiverStats summed over the pool's receivers.
  std::uint64_t acks_sent = 0;
  std::uint64_t annihilated = 0;
  std::uint64_t compensations_delivered = 0;
  std::uint64_t compensations_dropped = 0;
  std::size_t dest_depth_max = 0;  // traced runs only
  Samples read_us;                 // traced: successful data reads
  Samples commit_us;               // traced: commit_tx calls
  std::vector<ReadSpan> spans;     // traced
};

class ReceiverPool {
 public:
  static constexpr int kThreads = 2;

  ReceiverPool(cmx::mq::QueueManager& qm, std::vector<Leg> legs,
               bool transactional, bool traced);
  ~ReceiverPool();

  ReceiverPool(const ReceiverPool&) = delete;
  ReceiverPool& operator=(const ReceiverPool&) = delete;

  // Compensations handled so far: annihilated + delivered + dropped.
  std::uint64_t compensations_handled() const;

  // Keeps reading until `compensations` compensations have been handled
  // (or `timeout_ms` passes), then joins the threads and reports.
  PoolReport stop(std::uint64_t compensations, std::int64_t timeout_ms);

 private:
  struct Worker;
  void run(Worker& worker);

  const bool transactional_;
  const bool traced_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
  PoolReport report_;
};

}  // namespace cmbench
