#include "receivers.hpp"

#include <condition_variable>
#include <unordered_set>

#include "cm/receiver.hpp"

namespace cmbench {

namespace cm = cmx::cm;
namespace mq = cmx::mq;

// Upper bound on one idle wait; a put notification normally ends it.
constexpr auto kIdleWait = std::chrono::milliseconds(2);

// Put notifications of a worker's legs. Shared with the queues' put
// listeners, which may still be running when the pool is gone.
struct Signal {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t puts = 0;
  bool stopping = false;
};

struct ReceiverPool::Worker {
  struct Slot {
    std::string queue;
    std::unique_ptr<cm::ConditionalReceiver> receiver;
    std::shared_ptr<mq::Queue> queue_ref;
  };
  std::vector<Slot> slots;
  std::shared_ptr<Signal> signal = std::make_shared<Signal>();
  PoolReport local;
  std::unordered_set<std::string> seen_ids;
  std::thread thread;  // last: started after the members it uses
};

ReceiverPool::ReceiverPool(mq::QueueManager& qm, std::vector<Leg> legs,
                           bool transactional, bool traced)
    : transactional_(transactional), traced_(traced) {
  for (int t = 0; t < kThreads; ++t) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t i = 0; i < legs.size(); ++i) {
    Worker::Slot slot;
    slot.queue = legs[i].queue;
    slot.receiver =
        std::make_unique<cm::ConditionalReceiver>(qm, legs[i].recipient);
    slot.queue_ref = qm.find_queue(legs[i].queue);
    Worker& worker = *workers_[i % kThreads];
    // A leg's queue wakes the worker that reads it (the listener hook is
    // the queue's API for consumers multiplexing several queues).
    slot.queue_ref->set_put_listener([signal = worker.signal] {
      std::lock_guard<std::mutex> lk(signal->mu);
      ++signal->puts;
      signal->cv.notify_one();
    });
    worker.slots.push_back(std::move(slot));
  }
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { run(*w); });
  }
}

ReceiverPool::~ReceiverPool() { stop(0, 0); }

void ReceiverPool::run(Worker& w) {
  PoolReport& r = w.local;
  Signal& signal = *w.signal;
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::uint64_t seen = 0;
    {
      std::lock_guard<std::mutex> lk(signal.mu);
      seen = signal.puts;
    }
    bool any = false;
    for (auto& slot : w.slots) {
      ++r.polls;
      if (transactional_) slot.receiver->begin_tx();
      const std::int64_t t0 = now_ns();
      auto got = slot.receiver->read_message(slot.queue, 0);
      const std::int64_t t1 = now_ns();
      if (!got) {
        if (transactional_) slot.receiver->rollback_tx();
        ++r.idle_polls;
        if (got.code() != cmx::util::ErrorCode::kTimeout &&
            !stopping_.load(std::memory_order_relaxed)) {
          ++r.read_errors;
        }
        continue;
      }
      any = true;
      std::int64_t ack_ns = t1;
      if (transactional_) {
        if (!slot.receiver->commit_tx()) ++r.read_errors;
        ack_ns = now_ns();
        if (traced_) r.commit_us.add(ns_to_us(ack_ns - t1));
      }
      const cm::ReceivedMessage& msg = got.value();
      if (msg.kind == cm::MessageKind::kData && msg.conditional) {
        ++r.data_reads;
        if (!w.seen_ids.insert(msg.message.id()).second) ++r.duplicates;
        if (traced_) {
          r.read_us.add(ns_to_us(t1 - t0));
          r.spans.push_back(ReadSpan{msg.cm_id, t0, t1, ack_ns});
        }
      } else if (msg.kind != cm::MessageKind::kCompensation) {
        ++r.unexpected;
      }
    }
    if (traced_) {
      for (const auto& slot : w.slots) {
        r.dest_depth_max = std::max(r.dest_depth_max, slot.queue_ref->depth());
      }
    }
    if (!any) {
      // Sleep until one of this worker's legs sees a put after the sweep
      // started: nothing put before it can be missed.
      std::unique_lock<std::mutex> lk(signal.mu);
      signal.cv.wait_for(lk, kIdleWait, [&] {
        return signal.puts != seen || signal.stopping;
      });
    }
  }
}

std::uint64_t ReceiverPool::compensations_handled() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) {
    for (const auto& slot : w->slots) {
      const auto s = slot.receiver->stats();
      n += s.annihilated + s.compensations_delivered + s.compensations_dropped;
    }
  }
  return n;
}

PoolReport ReceiverPool::stop(std::uint64_t compensations,
                              std::int64_t timeout_ms) {
  if (stopped_) return report_;
  const std::int64_t deadline = now_ns() + timeout_ms * 1'000'000;
  while (compensations_handled() < compensations && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stopping_.store(true);
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lk(w->signal->mu);
      w->signal->stopping = true;
    }
    w->signal->cv.notify_one();
    for (auto& slot : w->slots) slot.queue_ref->set_put_listener({});
    if (w->thread.joinable()) w->thread.join();
  }
  stopped_ = true;

  PoolReport& r = report_;
  std::unordered_set<std::string> all_ids;
  for (auto& w : workers_) {
    const PoolReport& l = w->local;
    r.polls += l.polls;
    r.idle_polls += l.idle_polls;
    r.data_reads += l.data_reads;
    r.duplicates += l.duplicates;
    r.read_errors += l.read_errors;
    r.unexpected += l.unexpected;
    r.dest_depth_max = std::max(r.dest_depth_max, l.dest_depth_max);
    r.read_us.append(l.read_us);
    r.commit_us.append(l.commit_us);
    r.spans.insert(r.spans.end(), l.spans.begin(), l.spans.end());
    // A leg is read by one thread only, but a duplicate delivery to
    // another leg's queue would still be a duplicate.
    for (const auto& id : w->seen_ids) {
      if (!all_ids.insert(id).second) ++r.duplicates;
    }
    for (const auto& slot : w->slots) {
      const auto s = slot.receiver->stats();
      r.acks_sent += s.read_acks + s.processing_acks;
      r.annihilated += s.annihilated;
      r.compensations_delivered += s.compensations_delivered;
      r.compensations_dropped += s.compensations_dropped;
    }
  }
  return r;
}

}  // namespace cmbench
