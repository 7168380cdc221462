// score_scheduler — the placement-manager process of the multi-process
// control plane.
//
// Builds the authoritative world from flags, listens for --agents score_agent
// daemons, partitions the hosts among them, injects the token and runs the
// distributed S-CORE loop with every agent decision executed out-of-process.
// Prints the same convergence report as `score_cli --mode distributed` plus
// the structural wire-trace hash — which must equal the in-process hash for
// the same flags at loss 0 (the differential test's one-word check).
//
// Fault tolerance: --fault-seed arms a deterministic adversarial transport
// under every connection (the ReliableLink absorbs the injected faults, so
// the run stays bit-identical); the listening socket stays open for the whole
// run so a crashed daemon can reconnect and resume, or — after --grace-s —
// have its hosts redistributed to a survivor. --kill-agent/--kill-after-tasks
// sever a connection on purpose for chaos testing. None of these flags enter
// the world fingerprint: they change how the run is transported, not what
// world is simulated.
//
// The listen address is printed (and flushed) before the first accept so a
// wrapper can read the real port of an ephemeral `tcp:127.0.0.1:0` bind.
//
// Example:
//   score_scheduler --listen unix:/tmp/score.sock --agents 4 --vms 1024
//   score_agent    --connect unix:/tmp/score.sock            --vms 1024  (x4)
#include <fstream>
#include <iostream>
#include <vector>

#include "hypervisor/distributed_runtime.hpp"
#include "hypervisor/remote_executor.hpp"
#include "util/flags.hpp"
#include "util/socket.hpp"
#include "world_builder.hpp"

int main(int argc, char** argv) {
  using namespace score;

  util::Flags flags;
  tools::register_world_flags(flags);
  flags.add_string("listen", "tcp:127.0.0.1:0",
                   "address to listen on (unix:/path or tcp:host:port; "
                   "port 0 = ephemeral, the real address is printed)");
  flags.add_int("agents", 4, "number of score_agent connections to wait for");
  flags.add_string("wire-trace", "",
                   "write the task-protocol wire trace (one line per frame) "
                   "to this file");
  flags.add_int("fault-seed", 0,
                "seed for the adversarial transport under every connection "
                "(drop/duplicate/corrupt/truncate/reorder/delay); 0 = clean");
  flags.add_double("fault-rate", 0.05,
                   "per-frame fault probability when --fault-seed is set");
  flags.add_double("result-timeout", 60.0,
                   "silence on an awaited result before a daemon is declared "
                   "dead (seconds)");
  flags.add_double("grace-s", 10.0,
                   "how long a dead daemon's hosts stay parked awaiting a "
                   "reconnect before redistribution to a survivor (seconds)");
  flags.add_int("kill-after-tasks", 0,
                "chaos hook: sever --kill-agent's connection after its Nth "
                "task was sent; 0 disables");
  flags.add_int("kill-agent", 0, "agent index for --kill-after-tasks");
  flags.add_bool("recovery-stats", false,
                 "print fault-tolerance counters after the run");

  try {
    if (!flags.parse(argc, argv)) {
      std::cout << flags.help("score_scheduler");
      return 0;
    }
    const long long num_agents = flags.get_int("agents");
    if (num_agents < 1) {
      throw std::invalid_argument("--agents must be at least 1");
    }
    if (flags.get_int("kill-agent") < 0 ||
        flags.get_int("kill-agent") >= num_agents) {
      throw std::invalid_argument("--kill-agent out of range");
    }

    tools::World w = tools::build_world(flags);
    w.runtime.validate(w.topology->num_hosts());

    util::ServerSocket server =
        util::ServerSocket::listen(flags.get_string("listen"));
    std::cout << "score_scheduler: listening on " << server.address()
              << ", waiting for " << num_agents << " agents" << std::endl;

    std::vector<util::Socket> agents;
    for (long long i = 0; i < num_agents; ++i) {
      agents.push_back(server.accept());
    }
    std::cout << "score_scheduler: " << num_agents << " agents connected"
              << std::endl;

    hypervisor::RemoteExecutorConfig config;
    config.fault_seed = static_cast<std::uint64_t>(flags.get_int("fault-seed"));
    config.fault_profile =
        util::FaultProfile::chaos(flags.get_double("fault-rate"));
    config.result_timeout_s = flags.get_double("result-timeout");
    config.reconnect_grace_s = flags.get_double("grace-s");
    config.kill_after_tasks = flags.get_count("kill-after-tasks");
    config.kill_agent = static_cast<std::uint32_t>(flags.get_int("kill-agent"));

    hypervisor::RemoteAgentExecutor executor(std::move(agents), w.fingerprint,
                                             config);
    // The listening socket stays open: a crashed daemon reconnects here.
    executor.set_reconnect_acceptor([&server](double timeout_s) {
      return server.accept_timeout(timeout_s);
    });
    std::ofstream trace_out;
    if (!flags.get_string("wire-trace").empty()) {
      trace_out.open(flags.get_string("wire-trace"));
      if (!trace_out) {
        throw std::runtime_error("cannot open " +
                                 flags.get_string("wire-trace"));
      }
      executor.set_wire_tap(
          [&trace_out](const hypervisor::RemoteAgentExecutor::WireRecord& r) {
            trace_out << (r.to_agent ? '>' : '<') << ' ' << r.agent << ' '
                      << r.seq << ' ' << static_cast<int>(r.type) << ' '
                      << r.bytes << ' ' << std::hex << r.payload_fnv
                      << std::dec << '\n';
          });
    }

    hypervisor::DistributedScoreRuntime runtime(*w.model, *w.alloc, *w.tm,
                                                w.runtime, executor);
    const hypervisor::RuntimeResult r = runtime.run();
    const driver::ConvergenceReport rep = r.report();
    std::cout << "multi-process S-CORE: cost " << rep.initial_cost << " -> "
              << rep.final_cost << " (" << 100.0 * rep.reduction()
              << "% reduction), " << rep.migrations << " migrations, "
              << rep.rounds << " rounds, " << rep.duration_s
              << " s simulated\n";
    std::cout << "control plane: " << rep.token_messages << " token msgs ("
              << rep.token_bytes << " B), " << rep.control_bytes
              << " control bytes total\n";
    std::cout << "trace hash: " << std::hex << r.trace_hash << std::dec
              << " (epoch " << r.final_epoch << ", ring position "
              << r.final_ring_pos << ")\n";
    if (flags.get_bool("recovery-stats")) {
      const hypervisor::RecoveryStats& s = executor.recovery_stats();
      std::cout << "recovery: " << s.reconnects << " reconnects ("
                << s.full_resyncs << " resyncs, " << s.resumes_in_place
                << " in place, " << s.resumes_ahead << " ahead), "
                << s.redistributions << " redistributions, " << s.tasks_resent
                << " tasks resent, " << s.forced_kills << " forced kills\n";
      std::cout << "pipeline: " << s.pipelined_tasks << " tasks, max inflight "
                << s.max_inflight << "\n";
      std::cout << "link: " << s.link_retransmitted_frames << " retransmits, "
                << s.link_corrupt_dropped << " corrupt dropped, "
                << s.link_duplicates_dropped << " duplicates dropped, "
                << s.faults_injected << " faults injected\n";
    }
    return 0;
  } catch (const std::invalid_argument& e) {
    std::cerr << "score_scheduler: " << e.what() << " (--help for usage)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "score_scheduler: " << e.what() << "\n";
    return 1;
  }
}
