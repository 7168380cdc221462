// score_agent — the per-host-range dom0 agent daemon of the multi-process
// control plane.
//
// Builds its world replica from the same flags as the scheduler, connects to
// the scheduler's listen address (retrying while the scheduler is still
// starting), then serves framed tasks over a ReliableLink until shutdown.
// One process typically owns a contiguous range of hosts (assigned by the
// scheduler at kInit), so "1 scheduler + N agents" partitions the data
// center among N daemons.
//
// If the connection drops mid-run the daemon keeps its replica state and
// reconnects (up to --reconnect-retries attempts with exponential backoff),
// resuming from its mutating-action-log cursor — the scheduler resyncs
// exactly the missed suffix and re-sends the in-flight task.
//
// Example (4 agents over a unix socket):
//   score_scheduler --listen unix:/tmp/score.sock --agents 4 --vms 1024 &
//   for i in 1 2 3 4; do score_agent --connect unix:/tmp/score.sock --vms 1024 & done
//
// Every world flag must match the scheduler's invocation exactly — the
// fingerprint handshake turns any mismatch into an immediate error instead
// of a silently divergent run.
#include <chrono>
#include <iostream>
#include <thread>

#include "hypervisor/agent_daemon.hpp"
#include "util/flags.hpp"
#include "util/reliable_link.hpp"
#include "util/socket.hpp"
#include "util/transport.hpp"
#include "world_builder.hpp"

int main(int argc, char** argv) {
  using namespace score;

  util::Flags flags;
  tools::register_world_flags(flags);
  flags.add_string("connect", "",
                   "scheduler address to connect to (unix:/path or "
                   "tcp:host:port); required");
  flags.add_double("connect-timeout", 10.0,
                   "seconds to keep retrying the connect while the scheduler "
                   "starts up");
  flags.add_int("reconnect-retries", 5,
                "reconnect attempts after a dropped connection before giving "
                "up (0 = die on first drop)");
  flags.add_double("reconnect-backoff", 0.2,
                   "initial delay before a reconnect attempt, doubled each "
                   "consecutive failure (seconds)");
  flags.add_int("crash-after-tasks", 0,
                "chaos hook: exit abruptly (code 17) after executing this "
                "many tasks, before sending the result; 0 disables");
  flags.add_double("retransmit-timeout", 0.05,
                   "reliable-link initial retransmission timeout (seconds); "
                   "chaos tests shrink it to keep lossy runs fast");

  try {
    if (!flags.parse(argc, argv)) {
      std::cout << flags.help("score_agent");
      return 0;
    }
    if (flags.get_string("connect").empty()) {
      throw std::invalid_argument("--connect is required");
    }
    const std::size_t retries = flags.get_count("reconnect-retries");

    tools::World w = tools::build_world(flags);
    w.runtime.validate(w.topology->num_hosts());
    hypervisor::AgentDaemon daemon(*w.model, *w.alloc, *w.tm, w.runtime);
    daemon.set_crash_after_tasks(flags.get_count("crash-after-tasks"));

    std::size_t tasks = 0;
    std::size_t drops = 0;
    double backoff = flags.get_double("reconnect-backoff");
    while (!daemon.done()) {
      util::Socket socket = util::Socket::connect(
          flags.get_string("connect"), flags.get_double("connect-timeout"));
      util::SocketTransport transport(socket);
      util::LinkConfig link_cfg;
      link_cfg.retransmit_timeout_s = flags.get_double("retransmit-timeout");
      util::ReliableLink link(transport, link_cfg);
      try {
        tasks += daemon.serve(link);
      } catch (const util::LinkDown& e) {
        if (++drops > retries) {
          std::cerr << "score_agent: " << e.what() << " after " << retries
                    << " reconnects, giving up\n";
          return 1;
        }
        std::cerr << "score_agent: connection lost (" << e.what()
                  << "), reconnect " << drops << "/" << retries << "\n";
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        backoff *= 2.0;
      }
    }
    std::cout << "score_agent: run complete, " << tasks << " tasks served\n";
    return 0;
  } catch (const std::invalid_argument& e) {
    std::cerr << "score_agent: " << e.what() << " (--help for usage)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "score_agent: " << e.what() << "\n";
    return 1;
  }
}
