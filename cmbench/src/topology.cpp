#include "topology.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cm/condition_builder.hpp"
#include "mq/network.hpp"
#include "mq/transport/transport_server.hpp"
#include "obs/registry.hpp"

namespace cmbench {

namespace cm = cmx::cm;
namespace mq = cmx::mq;
namespace transport = cmx::mq::transport;

namespace {

constexpr std::size_t kChannelBatch = 64;
constexpr const char* kSenderQm = "QM1";
constexpr const char* kReceiverQm = "QM2";

// compensate_inproc saturates with a small window: with 256 in flight its
// decisions came in waves about a second apart, and the tail rate counted
// a varying number of them.
const std::vector<WorkloadSpec> kWorkloads = {
    // name, tcp, legs, body, compensate, transactional, paced rate,
    // window, expected verdict
    {"success_inproc", false, 4, 256, false, false, 80.0, 256,
     cm::Outcome::kSuccess},
    {"compensate_inproc", false, 4, 256, true, false, 60.0, 32,
     cm::Outcome::kFailure},
    {"durable_tcp", true, 2, 4096, false, true, 80.0, 64,
     cm::Outcome::kSuccess},
};

std::vector<Leg> legs_of(const WorkloadSpec& spec) {
  std::vector<Leg> legs;
  for (int i = 0; i < spec.legs; ++i) {
    const std::string n = std::to_string(i);
    legs.push_back(Leg{std::string("Q") + n, std::string("r") + n});
  }
  return legs;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

void check(const cmx::util::Status& s, const std::string& what) {
  if (!s) fail(what + ": " + s.to_string());
}

// fsync at most every 100 ms (appends are written, so process-crash safe,
// before they are acknowledged). With sync=every_batch every send and
// commit waits for an fsync, and decided_per_s followed the host's fsync
// latency (110 to 630/s across runs of the same code): see README.md.
std::string store_spec(const std::string& dir) {
  return "segmented:" + dir + "?sync=interval&sync_interval_ms=100";
}

// ---- inproc --------------------------------------------------------------

class InprocTopology final : public Topology {
 public:
  InprocTopology(const WorkloadSpec& spec, bool traced) {
    mq::QueueManagerOptions qm_options;
    qm_options.store = "memory";
    qm1_ = std::make_unique<mq::QueueManager>(kSenderQm, clock_, nullptr,
                                              qm_options);
    qm2_ = std::make_unique<mq::QueueManager>(kReceiverQm, clock_, nullptr,
                                              qm_options);
    const auto legs = legs_of(spec);
    for (const auto& leg : legs) {
      check(qm2_->create_queue(leg.queue), "create " + leg.queue);
    }
    net_ = std::make_unique<mq::Network>();
    net_->add(*qm1_);
    net_->add(*qm2_);
    mq::ChannelOptions channel;
    channel.max_batch = kChannelBatch;
    check(net_->connect(kSenderQm, kReceiverQm, channel), "channel out");
    check(net_->connect(kReceiverQm, kSenderQm, channel), "channel back");
    svc_ = std::make_unique<cm::ConditionalMessagingService>(*qm1_);
    pool_ = std::make_unique<ReceiverPool>(*qm2_, legs, spec.transactional,
                                           traced);
  }

  ~InprocTopology() override {
    pool_.reset();
    svc_.reset();
    net_->shutdown();
    net_.reset();
    qm2_.reset();
    qm1_.reset();
  }

  cm::ConditionalMessagingService& sender() override { return *svc_; }
  mq::QueueManager& sender_qm() override { return *qm1_; }

  ReceiverSide stop_receivers(std::uint64_t compensations) override {
    ReceiverSide side;
    side.pool = pool_->stop(compensations, 10'000);
    if (auto rlog = qm2_->find_queue(cm::kReceiverLogQueue)) {
      side.rlog_depth = rlog->depth();
    }
    return side;
  }

 private:
  cmx::util::SystemClock clock_;
  std::unique_ptr<mq::QueueManager> qm1_;
  std::unique_ptr<mq::QueueManager> qm2_;
  std::unique_ptr<mq::Network> net_;
  std::unique_ptr<cm::ConditionalMessagingService> svc_;
  std::unique_ptr<ReceiverPool> pool_;
};

// ---- tcp -----------------------------------------------------------------

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) fail("readlink /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

// Reads one '\n'-terminated line (without it); false on EOF.
bool read_line(FILE* in, std::string& line) {
  line.clear();
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') return true;
    line.push_back(static_cast<char>(c));
  }
  return !line.empty();
}

class TcpTopology final : public Topology {
 public:
  TcpTopology(const WorkloadSpec& spec, const TopologyOptions& options)
      : dir_(options.workdir + "/topo-" + std::to_string(options.instance)) {
    std::filesystem::remove_all(dir_);
    mq::QueueManagerOptions qm_options;
    qm_options.store = store_spec(dir_ + "/qm1");
    qm1_ = std::make_unique<mq::QueueManager>(kSenderQm, clock_, nullptr,
                                              qm_options);
    // The service creates DS.ACK.Q, which must exist before acks arrive.
    svc_ = std::make_unique<cm::ConditionalMessagingService>(*qm1_);
    server_ = std::make_unique<transport::TransportServer>(*qm1_);
    check(server_->start(), "ack server start");
    net_ = std::make_unique<mq::Network>();
    net_->add(*qm1_);

    spawn_child(spec, options.traced);
    std::string line;
    unsigned port = 0;
    if (!read_line(from_child_, line) ||
        std::sscanf(line.c_str(), "PORT %u", &port) != 1 || port == 0) {
      fail("receiver node did not report its port");
    }
    transport::TransportChannelOptions channel;
    channel.port = static_cast<std::uint16_t>(port);
    channel.max_batch = kChannelBatch;
    check(net_->add_remote(*qm1_, kReceiverQm, channel), "add_remote");
  }

  ~TcpTopology() override {
    finish_child();
    net_->shutdown();
    server_->stop();
    svc_.reset();
    net_.reset();
    server_.reset();
    qm1_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  cm::ConditionalMessagingService& sender() override { return *svc_; }
  mq::QueueManager& sender_qm() override { return *qm1_; }
  transport::TransportChannel* data_channel() override {
    return net_->transport_channel(kSenderQm, kReceiverQm);
  }

  ReceiverSide stop_receivers(std::uint64_t compensations) override {
    ReceiverSide side;
    side.ok = false;
    if (to_child_ < 0) return side;
    dprintf(to_child_, "STOP %llu\n",
            static_cast<unsigned long long>(compensations));
    PoolReport& r = side.pool;
    std::string line;
    while (read_line(from_child_, line)) {
      std::istringstream in(line);
      std::string tag;
      in >> tag;
      if (tag == "STATS") {
        in >> r.polls >> r.idle_polls >> r.data_reads >> r.duplicates >>
            r.read_errors >> r.unexpected >> r.acks_sent >> r.annihilated >>
            r.compensations_delivered >> r.compensations_dropped >>
            r.dest_depth_max >> side.rlog_depth >> side.rss_mb >>
            side.store_appends >> side.store_fsyncs;
      } else if (tag == "R") {
        double v = 0;
        in >> v;
        r.read_us.add(v);
      } else if (tag == "C") {
        double v = 0;
        in >> v;
        r.commit_us.add(v);
      } else if (tag == "S") {
        ReadSpan span;
        in >> span.cm_id >> span.start_ns >> span.end_ns >> span.ack_ns;
        r.spans.push_back(std::move(span));
      } else if (tag == "END") {
        side.ok = true;
        break;
      }
    }
    return side;
  }

 private:
  void spawn_child(const WorkloadSpec& spec, bool traced) {
    int ctl[2];
    int rep[2];
    if (::pipe2(ctl, O_CLOEXEC) != 0 || ::pipe2(rep, O_CLOEXEC) != 0) {
      fail("pipe");
    }
    const std::string exe = self_exe();
    const std::string port = std::to_string(server_->port());
    const std::string dir = dir_ + "/qm2";
    const char* argv[] = {exe.c_str(), "--child",     "--workload",
                          spec.name,   "--dir",       dir.c_str(),
                          "--parent-port", port.c_str(), "--trace",
                          traced ? "1" : "0", "--report-fd", "3",
                          nullptr};
    const pid_t pid = ::fork();
    if (pid < 0) fail("fork");
    if (pid == 0) {
      // Only async-signal-safe calls until exec. The child dies with us.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(ctl[0], 0);
      if (rep[1] == 3) {
        ::fcntl(3, F_SETFD, 0);
      } else {
        ::dup2(rep[1], 3);
      }
      ::execv(exe.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    child_ = pid;
    ::close(ctl[0]);
    ::close(rep[1]);
    to_child_ = ctl[1];
    from_child_ = ::fdopen(rep[0], "r");
  }

  void finish_child() {
    if (to_child_ >= 0) {
      dprintf(to_child_, "EXIT\n");
      ::close(to_child_);
      to_child_ = -1;
    }
    if (from_child_ != nullptr) {
      std::fclose(from_child_);
      from_child_ = nullptr;
    }
    if (child_ <= 0) return;
    int status = 0;
    for (int i = 0; i < 10'000; ++i) {
      if (::waitpid(child_, &status, WNOHANG) == child_) {
        child_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::kill(child_, SIGKILL);
    ::waitpid(child_, &status, 0);
    child_ = -1;
  }

  cmx::util::SystemClock clock_;
  const std::string dir_;
  std::unique_ptr<mq::QueueManager> qm1_;
  std::unique_ptr<cm::ConditionalMessagingService> svc_;
  std::unique_ptr<transport::TransportServer> server_;
  std::unique_ptr<mq::Network> net_;
  pid_t child_ = -1;
  int to_child_ = -1;
  FILE* from_child_ = nullptr;
};

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

cm::ConditionPtr make_condition(const WorkloadSpec& spec) {
  constexpr cmx::util::TimeMs kWithin = 60 * cm::kSecond;
  cm::SetBuilder root;
  if (spec.compensate) root.pick_up_within(kWithin).max_nr_pick_up(1);
  for (const auto& leg : legs_of(spec)) {
    cm::DestBuilder dest(mq::QueueAddress(kReceiverQm, leg.queue),
                         leg.recipient);
    if (spec.transactional) {
      dest.processing_within(kWithin);
    } else if (!spec.compensate) {
      dest.pick_up_within(kWithin);
    }
    root.add(dest.build());
  }
  return root.build();
}

std::unique_ptr<Topology> make_topology(const WorkloadSpec& spec,
                                        const TopologyOptions& options) {
  if (spec.tcp) return std::make_unique<TcpTopology>(spec, options);
  return std::make_unique<InprocTopology>(spec, options.traced);
}

int run_child(int argc, char** argv) {
  std::string workload, dir;
  unsigned parent_port = 0;
  bool traced = false;
  int report_fd = -1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--dir") dir = value;
    else if (key == "--parent-port") parent_port = std::stoul(value);
    else if (key == "--trace") traced = value == "1";
    else if (key == "--report-fd") report_fd = std::stoi(value);
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr || dir.empty() || parent_port == 0 || report_fd < 0) {
    return 2;
  }
  FILE* report = ::fdopen(report_fd, "w");
  if (report == nullptr) return 2;
  cmx::obs::set_enabled(traced);

  cmx::util::SystemClock clock;
  mq::QueueManagerOptions qm_options;
  qm_options.store = store_spec(dir);
  mq::QueueManager qm(kReceiverQm, clock, nullptr, qm_options);
  const auto legs = legs_of(*spec);
  // Queues first: the server must not accept messages for missing queues.
  for (const auto& leg : legs) {
    qm.create_queue(leg.queue).expect_ok("create leg queue");
  }
  transport::TransportServer server(qm);
  server.start().expect_ok("data server start");
  mq::Network net;
  net.add(qm);
  transport::TransportChannelOptions channel;
  channel.port = static_cast<std::uint16_t>(parent_port);
  channel.max_batch = kChannelBatch;
  net.add_remote(qm, kSenderQm, channel).expect_ok("ack channel");

  int code = 0;
  {
    ReceiverPool pool(qm, legs, spec->transactional, traced);
    std::fprintf(report, "PORT %u\n", server.port());
    std::fflush(report);
    std::string line;
    unsigned long long compensations = 0;
    if (read_line(stdin, line) &&
        std::sscanf(line.c_str(), "STOP %llu", &compensations) == 1) {
      PoolReport r = pool.stop(compensations, 10'000);
      std::size_t rlog_depth = 0;
      if (auto rlog = qm.find_queue(cm::kReceiverLogQueue)) {
        rlog_depth = rlog->depth();
      }
      const auto snap = cmx::obs::MetricsRegistry::instance().snapshot();
      std::fprintf(
          report,
          "STATS %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %zu %zu "
          "%.3f %llu %llu\n",
          static_cast<unsigned long long>(r.polls),
          static_cast<unsigned long long>(r.idle_polls),
          static_cast<unsigned long long>(r.data_reads),
          static_cast<unsigned long long>(r.duplicates),
          static_cast<unsigned long long>(r.read_errors),
          static_cast<unsigned long long>(r.unexpected),
          static_cast<unsigned long long>(r.acks_sent),
          static_cast<unsigned long long>(r.annihilated),
          static_cast<unsigned long long>(r.compensations_delivered),
          static_cast<unsigned long long>(r.compensations_dropped),
          r.dest_depth_max, rlog_depth, peak_rss_mb(),
          static_cast<unsigned long long>(obs_counter(snap, "store.appends")),
          static_cast<unsigned long long>(obs_counter(snap, "store.fsyncs")));
      for (double v : r.read_us.values()) std::fprintf(report, "R %.3f\n", v);
      for (double v : r.commit_us.values()) std::fprintf(report, "C %.3f\n", v);
      for (const auto& s : r.spans) {
        std::fprintf(report, "S %s %lld %lld %lld\n", s.cm_id.c_str(),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<long long>(s.ack_ns));
      }
      std::fprintf(report, "END\n");
      std::fflush(report);
      // Keep the ack channel up until the sender has drained every ack.
      read_line(stdin, line);
    } else {
      code = 1;
    }
  }
  net.shutdown();
  server.stop();
  std::fclose(report);
  return code;
}

}  // namespace cmbench
