// Control-plane message types — what the dom0 agents say to each other over
// the fabric (sim::Message::type). An agent sends through its AgentEnv
// (agent.hpp): in-process the runtime puts each message on sim::Network
// (distributed_runtime), inside a score_agent daemon every send becomes an
// ordered action in a result frame that the scheduler replays into that
// same network (agent_daemon, remote_executor).
#pragma once

namespace score::hypervisor {

/// Control-plane message types (sim::Message::type).
enum class CtrlMsg : int {
  kToken = 1,
  kLocationRequest = 2,
  kLocationResponse = 3,
  kCapacityRequest = 4,
  kCapacityResponse = 5,
};

}  // namespace score::hypervisor
