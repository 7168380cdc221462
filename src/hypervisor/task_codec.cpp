#include "hypervisor/task_codec.hpp"

#include <cmath>
#include <stdexcept>

#include "hypervisor/wire.hpp"

namespace score::hypervisor {

namespace {

using wire::get_f64;
using wire::get_u32;
using wire::get_u64;
using wire::put_f64;
using wire::put_u32;
using wire::put_u64;

constexpr std::uint8_t kMagic[4] = {'S', 'C', 'T', 'A'};
// Payloads are control messages (token frames are O(|V|)); anything past
// this bound is a corrupted length field, not a legal frame.
constexpr std::size_t kMaxPayloadBytes = 1u << 28;

[[noreturn]] void fail(const char* what) {
  throw std::invalid_argument(std::string("task_codec: ") + what);
}

void check_finite(double v, const char* what) {
  if (!std::isfinite(v)) fail(what);
}

void check_stage(std::uint8_t stage) {
  if (stage > 1) fail("probe stage out of range");
}

/// Bounds-checked reader over a frame body.
class Reader {
 public:
  Reader(const std::vector<std::uint8_t>& buf, std::size_t pos)
      : buf_(&buf), pos_(pos) {}

  std::uint8_t u8() {
    need(1);
    return (*buf_)[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = get_u32(*buf_, pos_);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = get_u64(*buf_, pos_);
    pos_ += 8;
    return v;
  }
  double f64(const char* what) {
    need(8);
    const double v = get_f64(*buf_, pos_);
    pos_ += 8;
    check_finite(v, what);
    return v;
  }
  std::vector<std::uint8_t> bytes() {
    const std::uint32_t len = u32();
    if (len > kMaxPayloadBytes) fail("payload length out of range");
    need(len);
    const auto at = buf_->begin() + static_cast<long>(pos_);
    std::vector<std::uint8_t> out(at, at + static_cast<long>(len));
    pos_ += len;
    return out;
  }
  void expect_end() const {
    if (pos_ != buf_->size()) fail("trailing bytes after frame");
  }
  std::size_t remaining() const { return buf_->size() - pos_; }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > buf_->size()) fail("truncated frame");
  }
  const std::vector<std::uint8_t>* buf_;
  std::size_t pos_;
};

void encode_action(std::vector<std::uint8_t>& buf, const TaskAction& a) {
  buf.push_back(static_cast<std::uint8_t>(a.kind));
  switch (a.kind) {
    case TaskActionKind::kSend:
      if (a.payload.size() > kMaxPayloadBytes) fail("send payload too large");
      check_finite(a.delay_s, "send delay not finite");
      buf.push_back(a.msg_type);
      put_u32(buf, a.src);
      put_u32(buf, a.dst);
      put_f64(buf, a.delay_s);
      put_u32(buf, static_cast<std::uint32_t>(a.payload.size()));
      buf.insert(buf.end(), a.payload.begin(), a.payload.end());
      return;
    case TaskActionKind::kArmTimer:
      check_finite(a.delay_s, "timer delay not finite");
      check_stage(a.stage);
      put_u32(buf, a.host);
      put_f64(buf, a.delay_s);
      put_u32(buf, a.nonce);
      buf.push_back(a.stage);
      return;
    case TaskActionKind::kHold:
      check_finite(a.aggregate_delta, "aggregate delta not finite");
      buf.push_back(a.migrated ? 1 : 0);
      put_u32(buf, a.epoch);
      put_u32(buf, a.ring_pos);
      put_f64(buf, a.aggregate_delta);
      return;
    case TaskActionKind::kMigration:
      put_u32(buf, a.vm);
      put_u32(buf, a.target);
      return;
    case TaskActionKind::kBudgetReject:
      put_u32(buf, a.vm);
      return;
    case TaskActionKind::kStopRun:
    case TaskActionKind::kProbeTimeout:
      return;
    case TaskActionKind::kProbeRetransmit:
      put_u32(buf, a.count);
      return;
    case TaskActionKind::kHostLeave:
    case TaskActionKind::kHostJoin:
      put_u32(buf, a.host);
      return;
  }
  fail("unknown action kind");
}

TaskAction decode_action(Reader& r) {
  TaskAction a;
  const std::uint8_t kind = r.u8();
  if (kind < 1 || kind > 10) fail("unknown action kind");
  a.kind = static_cast<TaskActionKind>(kind);
  switch (a.kind) {
    case TaskActionKind::kSend:
      a.msg_type = r.u8();
      a.src = r.u32();
      a.dst = r.u32();
      a.delay_s = r.f64("send delay not finite");
      a.payload = r.bytes();
      break;
    case TaskActionKind::kArmTimer:
      a.host = r.u32();
      a.delay_s = r.f64("timer delay not finite");
      a.nonce = r.u32();
      a.stage = r.u8();
      check_stage(a.stage);
      break;
    case TaskActionKind::kHold: {
      const std::uint8_t migrated = r.u8();
      if (migrated > 1) fail("hold migrated flag not 0/1");
      a.migrated = migrated != 0;
      a.epoch = r.u32();
      a.ring_pos = r.u32();
      a.aggregate_delta = r.f64("aggregate delta not finite");
      break;
    }
    case TaskActionKind::kMigration:
      a.vm = r.u32();
      a.target = r.u32();
      break;
    case TaskActionKind::kBudgetReject:
      a.vm = r.u32();
      break;
    case TaskActionKind::kStopRun:
    case TaskActionKind::kProbeTimeout:
      break;
    case TaskActionKind::kProbeRetransmit:
      a.count = r.u32();
      break;
    case TaskActionKind::kHostLeave:
    case TaskActionKind::kHostJoin:
      a.host = r.u32();
      break;
  }
  return a;
}

void encode_actions(std::vector<std::uint8_t>& buf,
                    const std::vector<TaskAction>& actions) {
  put_u32(buf, static_cast<std::uint32_t>(actions.size()));
  for (const TaskAction& a : actions) encode_action(buf, a);
}

std::vector<TaskAction> decode_actions(Reader& r) {
  const std::uint32_t count = r.u32();
  // An action is at least 1 byte; a count past the buffer is corruption,
  // caught before allocating.
  if (count > r.remaining()) fail("action count out of range");
  std::vector<TaskAction> actions;
  actions.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) actions.push_back(decode_action(r));
  return actions;
}

}  // namespace

std::vector<std::uint8_t> encode_task(const TaskFrame& frame) {
  std::vector<std::uint8_t> buf;
  buf.reserve(task_frame_header_bytes() + 32);
  for (const std::uint8_t b : kMagic) buf.push_back(b);
  buf.push_back(kTaskFrameVersion);
  buf.push_back(static_cast<std::uint8_t>(frame.type));
  put_u32(buf, frame.seq);
  switch (frame.type) {
    case TaskType::kHello:
      put_u64(buf, frame.fingerprint);
      buf.push_back(frame.resuming ? 1 : 0);
      put_u64(buf, frame.resume_pos);
      put_u32(buf, frame.agent_id);
      return buf;
    case TaskType::kInit:
      put_u32(buf, frame.agent_id);
      put_u32(buf, frame.num_agents);
      put_u32(buf, frame.host_begin);
      put_u32(buf, frame.host_end);
      put_u64(buf, frame.fingerprint);
      return buf;
    case TaskType::kDeliver:
      check_finite(frame.time_s, "time not finite");
      if (frame.payload.size() > kMaxPayloadBytes) fail("payload too large");
      put_f64(buf, frame.time_s);
      buf.push_back(frame.msg_type);
      put_u32(buf, frame.src);
      put_u32(buf, frame.dst);
      put_u32(buf, static_cast<std::uint32_t>(frame.payload.size()));
      buf.insert(buf.end(), frame.payload.begin(), frame.payload.end());
      return buf;
    case TaskType::kTimer:
      check_finite(frame.time_s, "time not finite");
      check_stage(frame.stage);
      put_f64(buf, frame.time_s);
      put_u32(buf, frame.host);
      put_u32(buf, frame.nonce);
      buf.push_back(frame.stage);
      return buf;
    case TaskType::kApply:
      check_finite(frame.time_s, "time not finite");
      put_f64(buf, frame.time_s);
      encode_actions(buf, frame.actions);
      return buf;
    case TaskType::kShutdown:
      return buf;
    case TaskType::kResult:
      encode_actions(buf, frame.actions);
      return buf;
    case TaskType::kFinal:
      check_finite(frame.final_cost, "final cost not finite");
      check_finite(frame.migrated_mb, "migrated MB not finite");
      put_f64(buf, frame.final_cost);
      put_f64(buf, frame.migrated_mb);
      put_u64(buf, frame.total_migrations);
      put_u64(buf, frame.total_holds);
      return buf;
    case TaskType::kAdopt:
      put_u32(buf, frame.host_begin);
      put_u32(buf, frame.host_end);
      return buf;
  }
  fail("unknown frame type");
}

TaskFrame decode_task(const std::vector<std::uint8_t>& buf) {
  if (buf.size() < task_frame_header_bytes()) fail("truncated frame");
  for (std::size_t i = 0; i < 4; ++i) {
    if (buf[i] != kMagic[i]) fail("bad magic");
  }
  if (buf[4] != kTaskFrameVersion) fail("unsupported version");
  const std::uint8_t type = buf[5];
  if (type < 1 || type > 9) fail("unknown frame type");

  TaskFrame frame;
  frame.type = static_cast<TaskType>(type);
  frame.seq = get_u32(buf, 6);
  Reader r(buf, task_frame_header_bytes());
  switch (frame.type) {
    case TaskType::kHello: {
      frame.fingerprint = r.u64();
      const std::uint8_t resuming = r.u8();
      if (resuming > 1) fail("hello resuming flag not 0/1");
      frame.resuming = resuming != 0;
      frame.resume_pos = r.u64();
      frame.agent_id = r.u32();
      if (!frame.resuming && (frame.resume_pos != 0 || frame.agent_id != 0)) {
        fail("fresh hello with nonzero resume cursor");
      }
      break;
    }
    case TaskType::kInit:
      frame.agent_id = r.u32();
      frame.num_agents = r.u32();
      frame.host_begin = r.u32();
      frame.host_end = r.u32();
      frame.fingerprint = r.u64();
      if (frame.num_agents == 0) fail("zero agents");
      if (frame.agent_id >= frame.num_agents) fail("agent id out of range");
      if (frame.host_begin > frame.host_end) fail("inverted host range");
      break;
    case TaskType::kDeliver:
      frame.time_s = r.f64("time not finite");
      frame.msg_type = r.u8();
      frame.src = r.u32();
      frame.dst = r.u32();
      frame.payload = r.bytes();
      break;
    case TaskType::kTimer:
      frame.time_s = r.f64("time not finite");
      frame.host = r.u32();
      frame.nonce = r.u32();
      frame.stage = r.u8();
      check_stage(frame.stage);
      break;
    case TaskType::kApply:
      frame.time_s = r.f64("time not finite");
      frame.actions = decode_actions(r);
      break;
    case TaskType::kShutdown:
      break;
    case TaskType::kResult:
      frame.actions = decode_actions(r);
      break;
    case TaskType::kFinal:
      frame.final_cost = r.f64("final cost not finite");
      frame.migrated_mb = r.f64("migrated MB not finite");
      frame.total_migrations = r.u64();
      frame.total_holds = r.u64();
      break;
    case TaskType::kAdopt:
      frame.host_begin = r.u32();
      frame.host_end = r.u32();
      if (frame.host_begin > frame.host_end) fail("inverted host range");
      break;
  }
  r.expect_end();
  return frame;
}

}  // namespace score::hypervisor
