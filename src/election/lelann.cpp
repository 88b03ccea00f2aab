#include "election/lelann.hpp"

#include <algorithm>
#include <memory>

#include "election/batch_step.hpp"
#include "support/assert.hpp"

namespace hring::election {

template <class Ctx>
void LeLannProcess::fire(const Message* head, Ctx& ctx) {
  if (init_) {
    ctx.note_action("LL1");
    init_ = false;
    ctx.send(Message::token(id()));
    return;
  }
  HRING_EXPECTS(head != nullptr);
  switch (head->kind) {
    case sim::MsgKind::kToken: {
      const Label x = ctx.consume().label;
      best_ = std::max(best_, x);
      if (x == id()) {
        // Our token completed the loop: every label has passed us (FIFO
        // argument, see header). Elect the maximum.
        if (best_ == id()) {
          ctx.note_action("LL-elect");
          declare_leader();
          set_leader_label(id());
          set_done();
          ctx.send(Message::finish_label(id()));
        } else {
          // Somebody larger exists; wait for their announcement.
          ctx.note_action("LL-complete");
        }
      } else {
        ctx.note_action("LL-forward");
        ctx.send(Message::token(x));
      }
      return;
    }
    case sim::MsgKind::kFinishLabel: {
      const Label x = ctx.consume().label;
      if (is_leader()) {
        ctx.note_action("LL-halt");
        halt_self();
      } else {
        ctx.note_action("LL-learn");
        set_leader_label(x);
        set_done();
        ctx.send(Message::finish_label(x));
        halt_self();
      }
      return;
    }
    default:
      HRING_ASSERT(false);  // no other kinds are ever sent
  }
}

template void LeLannProcess::fire<Context>(const Message*, Context&);
template void LeLannProcess::fire<BatchFireContext>(const Message*,
                                                    BatchFireContext&);

std::string LeLannProcess::debug_state() const {
  std::string out = init_ ? "INIT" : (is_leader() ? "LEADER" : "RELAY");
  out += " best=" + words::to_string(best_);
  if (done()) out += " done";
  return out;
}

void LeLannProcess::encode(std::vector<std::uint64_t>& out) const {
  Process::encode(out);
  out.push_back(init_ ? 1 : 0);
  out.push_back(best_.value());
}

bool LeLannProcess::decode(const std::uint64_t*& it,
                           const std::uint64_t* end) {
  if (!decode_spec_vars(it, end)) return false;
  if (end - it < 2) return false;
  const std::uint64_t init_word = *it++;
  if (init_word > 1) return false;  // encoded as exactly 0 or 1
  init_ = (init_word != 0);
  best_ = Label(static_cast<Label::rep_type>(*it++));
  return true;
}

sim::ProcessFactory LeLannProcess::factory() {
  return [](ProcessId pid, Label id) {
    return std::make_unique<LeLannProcess>(pid, id);
  };
}

}  // namespace hring::election
