#include "src/verif/litmus_model.h"

#include <cassert>

#include "src/common/stats.h"

namespace cortenmm {

// --- Instr factories ---------------------------------------------------------

Instr Instr::Load(int reg, int var, MO order) {
  Instr i{Kind::kLoad};
  i.reg = static_cast<uint8_t>(reg);
  i.var = static_cast<uint8_t>(var);
  i.order = order;
  return i;
}

Instr Instr::Store(int var, int imm, MO order) {
  Instr i{Kind::kStore};
  i.var = static_cast<uint8_t>(var);
  i.imm = static_cast<uint8_t>(imm);
  i.order = order;
  return i;
}

Instr Instr::StoreReg(int var, int reg, MO order) {
  Instr i{Kind::kStoreReg};
  i.var = static_cast<uint8_t>(var);
  i.reg = static_cast<uint8_t>(reg);
  i.order = order;
  return i;
}

Instr Instr::Exchange(int reg, int var, int imm, MO order) {
  Instr i{Kind::kExchange};
  i.reg = static_cast<uint8_t>(reg);
  i.var = static_cast<uint8_t>(var);
  i.imm = static_cast<uint8_t>(imm);
  i.order = order;
  return i;
}

Instr Instr::FetchAdd(int reg, int var, int imm, MO order) {
  Instr i{Kind::kFetchAdd};
  i.reg = static_cast<uint8_t>(reg);
  i.var = static_cast<uint8_t>(var);
  i.imm = static_cast<uint8_t>(imm);
  i.order = order;
  return i;
}

Instr Instr::FetchOr(int reg, int var, int imm, MO order) {
  Instr i{Kind::kFetchOr};
  i.reg = static_cast<uint8_t>(reg);
  i.var = static_cast<uint8_t>(var);
  i.imm = static_cast<uint8_t>(imm);
  i.order = order;
  return i;
}

Instr Instr::Cas(int reg, int var, int expected, int desired, MO order) {
  Instr i{Kind::kCas};
  i.reg = static_cast<uint8_t>(reg);
  i.var = static_cast<uint8_t>(var);
  i.imm = static_cast<uint8_t>(expected);
  i.imm2 = static_cast<uint8_t>(desired);
  i.order = order;
  return i;
}

Instr Instr::Fence(MO order) {
  Instr i{Kind::kFence};
  i.order = order;
  return i;
}

Instr Instr::SetReg(int reg, int imm) {
  Instr i{Kind::kSetReg};
  i.reg = static_cast<uint8_t>(reg);
  i.imm = static_cast<uint8_t>(imm);
  return i;
}

Instr Instr::AddReg(int reg, int imm) {
  Instr i{Kind::kAddReg};
  i.reg = static_cast<uint8_t>(reg);
  i.imm = static_cast<uint8_t>(imm);
  return i;
}

Instr Instr::BranchEq(int reg, int imm, int target) {
  Instr i{Kind::kBranchEq};
  i.reg = static_cast<uint8_t>(reg);
  i.imm = static_cast<uint8_t>(imm);
  i.target = static_cast<uint8_t>(target);
  return i;
}

Instr Instr::BranchNe(int reg, int imm, int target) {
  Instr i{Kind::kBranchNe};
  i.reg = static_cast<uint8_t>(reg);
  i.imm = static_cast<uint8_t>(imm);
  i.target = static_cast<uint8_t>(target);
  return i;
}

Instr Instr::Goto(int target) {
  Instr i{Kind::kGoto};
  i.target = static_cast<uint8_t>(target);
  return i;
}

// --- View --------------------------------------------------------------------

uint8_t MemProgModel::View::Mem(int var) const { return state_[var]; }

uint8_t MemProgModel::View::Reg(int thread, int reg) const {
  return state_[model_.ThreadBase(thread) + 1 + reg];
}

int MemProgModel::View::Pc(int thread) const {
  return state_[model_.ThreadBase(thread)];
}

bool MemProgModel::View::Done(int thread) const {
  return Pc(thread) == static_cast<int>(model_.threads_[thread].code.size());
}

int MemProgModel::View::Buffered(int thread) const {
  return state_[model_.ThreadBase(thread) + 1 + model_.num_regs_];
}

bool MemProgModel::View::AllDone() const {
  for (int t = 0; t < model_.num_threads(); ++t) {
    if (!Done(t) || Buffered(t) != 0) {
      return false;
    }
  }
  return true;
}

// --- MemProgModel ------------------------------------------------------------

MemProgModel::MemProgModel(std::string name, int num_vars, int num_regs,
                           std::vector<ThreadScript> threads)
    : name_(std::move(name)),
      num_vars_(num_vars),
      num_regs_(num_regs),
      threads_(std::move(threads)),
      initial_mem_(num_vars, 0) {
  assert(num_vars_ > 0 && num_vars_ <= 16);
  assert(num_regs_ > 0 && num_regs_ <= 8);
  assert(!threads_.empty() && threads_.size() <= 4);
  for (const ThreadScript& script : threads_) {
    assert(script.code.size() < 250);
    (void)script;
  }
}

void MemProgModel::SetInitialMem(int var, uint8_t value) { initial_mem_[var] = value; }

int MemProgModel::ThreadBase(int thread) const {
  // pc + regs + buf_count + (var, val) per buffer slot.
  int per_thread = 1 + num_regs_ + 1 + 2 * kStoreBufferCap;
  return num_vars_ + thread * per_thread;
}

int MemProgModel::StateSize() const {
  return ThreadBase(static_cast<int>(threads_.size()));
}

ModelState MemProgModel::Initial() const {
  ModelState state(StateSize(), 0);
  for (int v = 0; v < num_vars_; ++v) {
    state[v] = initial_mem_[v];
  }
  return state;
}

uint8_t MemProgModel::LoadValue(const ModelState& state, int thread, int var) const {
  if (mem_model_ == MemModel::kTSO) {
    // Store forwarding: the newest buffered store to |var| wins.
    int base = ThreadBase(thread);
    int count = state[base + 1 + num_regs_];
    for (int k = count - 1; k >= 0; --k) {
      int slot = base + 2 + num_regs_ + 2 * k;
      if (state[slot] == var) {
        return state[slot + 1];
      }
    }
  }
  return state[var];
}

void MemProgModel::DrainAllLocked(ModelState& state, int thread) const {
  int base = ThreadBase(thread);
  int count = state[base + 1 + num_regs_];
  for (int k = 0; k < count; ++k) {
    int slot = base + 2 + num_regs_ + 2 * k;
    state[state[slot]] = state[slot + 1];
    state[slot] = 0;
    state[slot + 1] = 0;
  }
  state[base + 1 + num_regs_] = 0;
}

ModelState MemProgModel::FlushOne(const ModelState& state, int thread) const {
  ModelState next = state;
  int base = ThreadBase(thread);
  int count = next[base + 1 + num_regs_];
  assert(count > 0);
  int oldest = base + 2 + num_regs_;
  next[next[oldest]] = next[oldest + 1];  // Commit the FIFO head.
  // Shift the remaining entries down.
  for (int k = 1; k < count; ++k) {
    next[oldest + 2 * (k - 1)] = next[oldest + 2 * k];
    next[oldest + 2 * (k - 1) + 1] = next[oldest + 2 * k + 1];
  }
  next[oldest + 2 * (count - 1)] = 0;
  next[oldest + 2 * (count - 1) + 1] = 0;
  next[base + 1 + num_regs_] = static_cast<uint8_t>(count - 1);
  return next;
}

bool MemProgModel::Step(const ModelState& state, int thread,
                        std::vector<ModelState>* out) const {
  int base = ThreadBase(thread);
  int pc = state[base];
  const Instr& instr = threads_[thread].code[pc];
  const bool tso = mem_model_ == MemModel::kTSO;

  ModelState next = state;
  uint8_t* regs = &next[base + 1];
  uint8_t& buf_count = next[base + 1 + num_regs_];
  auto buffer_store = [&](uint8_t var, uint8_t value) -> bool {
    if (instr.order == MO::kSeqCst) {
      // x86 mov + mfence: commit everything including this store.
      DrainAllLocked(next, thread);
      next[var] = value;
      return true;
    }
    if (buf_count >= kStoreBufferCap) {
      return false;  // Step disabled until a flush frees a slot.
    }
    int slot = base + 2 + num_regs_ + 2 * buf_count;
    next[slot] = var;
    next[slot + 1] = value;
    ++buf_count;
    return true;
  };
  auto direct_store = [&](uint8_t var, uint8_t value) -> bool {
    if (!tso) {
      next[var] = value;
      return true;
    }
    return buffer_store(var, value);
  };
  // RMWs are LOCK-prefixed on x86: the buffer drains, then the operation hits
  // shared memory atomically — regardless of the source annotation.
  auto rmw_prologue = [&]() {
    if (tso) {
      DrainAllLocked(next, thread);
    }
  };

  switch (instr.kind) {
    case Instr::Kind::kLoad:
      regs[instr.reg] = LoadValue(state, thread, instr.var);
      next[base] = static_cast<uint8_t>(pc + 1);
      break;
    case Instr::Kind::kStore:
      if (!direct_store(instr.var, instr.imm)) {
        return false;
      }
      next[base] = static_cast<uint8_t>(pc + 1);
      break;
    case Instr::Kind::kStoreReg:
      if (!direct_store(instr.var, regs[instr.reg])) {
        return false;
      }
      next[base] = static_cast<uint8_t>(pc + 1);
      break;
    case Instr::Kind::kExchange:
      rmw_prologue();
      regs[instr.reg] = next[instr.var];
      next[instr.var] = instr.imm;
      next[base] = static_cast<uint8_t>(pc + 1);
      break;
    case Instr::Kind::kFetchAdd:
      rmw_prologue();
      regs[instr.reg] = next[instr.var];
      next[instr.var] = static_cast<uint8_t>(next[instr.var] + instr.imm);
      next[base] = static_cast<uint8_t>(pc + 1);
      break;
    case Instr::Kind::kFetchOr:
      rmw_prologue();
      regs[instr.reg] = next[instr.var];
      next[instr.var] = static_cast<uint8_t>(next[instr.var] | instr.imm);
      next[base] = static_cast<uint8_t>(pc + 1);
      break;
    case Instr::Kind::kCas:
      // LOCK CMPXCHG drains on failure too.
      rmw_prologue();
      if (next[instr.var] == instr.imm) {
        next[instr.var] = instr.imm2;
        regs[instr.reg] = 1;
      } else {
        regs[instr.reg] = 0;
      }
      next[base] = static_cast<uint8_t>(pc + 1);
      break;
    case Instr::Kind::kFence:
      // Only the seq_cst fence is an MFENCE on x86; acquire/release fences
      // compile to nothing under TSO (they constrain the compiler, which the
      // model has no analog of — DESIGN.md §10 discusses the gap).
      if (tso && instr.order == MO::kSeqCst) {
        DrainAllLocked(next, thread);
      }
      next[base] = static_cast<uint8_t>(pc + 1);
      break;
    case Instr::Kind::kSetReg:
      regs[instr.reg] = instr.imm;
      next[base] = static_cast<uint8_t>(pc + 1);
      break;
    case Instr::Kind::kAddReg:
      regs[instr.reg] = static_cast<uint8_t>(regs[instr.reg] + instr.imm);
      next[base] = static_cast<uint8_t>(pc + 1);
      break;
    case Instr::Kind::kBranchEq:
      next[base] = regs[instr.reg] == instr.imm ? instr.target
                                                : static_cast<uint8_t>(pc + 1);
      break;
    case Instr::Kind::kBranchNe:
      next[base] = regs[instr.reg] != instr.imm ? instr.target
                                                : static_cast<uint8_t>(pc + 1);
      break;
    case Instr::Kind::kGoto:
      next[base] = instr.target;
      break;
  }
  out->push_back(std::move(next));
  return true;
}

std::vector<ModelState> MemProgModel::Successors(const ModelState& state) const {
  std::vector<ModelState> out;
  for (int t = 0; t < num_threads(); ++t) {
    int base = ThreadBase(t);
    if (static_cast<size_t>(state[base]) < threads_[t].code.size()) {
      Step(state, t, &out);
    }
    // The nondeterministic flush: the explorer interleaves every possible
    // drain point of every thread's FIFO head with all other steps.
    if (mem_model_ == MemModel::kTSO && state[base + 1 + num_regs_] > 0) {
      out.push_back(FlushOne(state, t));
    }
  }
  return out;
}

bool MemProgModel::CheckInvariants(const ModelState& state, std::string* violation) const {
  if (!invariant_) {
    return true;
  }
  View view(*this, state);
  std::string why;
  if (!invariant_(view, &why)) {
    *violation = name_ + ": " + why;
    return false;
  }
  return true;
}

bool MemProgModel::IsFinal(const ModelState& state) const {
  View view(*this, state);
  return view.AllDone();
}

// --- Memory-model comparison -------------------------------------------------

MemModelComparison CompareMemModels(MemProgModel& model, uint64_t max_states) {
  MemModel configured = model.mem_model();
  MemModelComparison cmp;
  model.SetMemModel(MemModel::kSC);
  cmp.sc = ModelChecker::Run(model, max_states);
  model.SetMemModel(MemModel::kTSO);
  cmp.tso = ModelChecker::Run(model, max_states);
  model.SetMemModel(configured);
  if (cmp.sc.ok && cmp.tso.ok && cmp.tso.states_explored >= cmp.sc.states_explored) {
    cmp.tso_only_states = cmp.tso.states_explored - cmp.sc.states_explored;
    CountEvent(Counter::kLitmusTsoOnlyStates, cmp.tso_only_states);
  }
  return cmp;
}

// --- Classic sanity litmus ---------------------------------------------------

std::unique_ptr<MemProgModel> MakeSbLitmus(bool fenced) {
  // vars: x=0, y=1. Annotations deliberately release/acquire (not seq_cst) to
  // demonstrate that they alone do NOT forbid store->load reordering; only
  // the fence (or an RMW) does. Production analog of the fenced form: RCU
  // reader publication (src/sync/rcu.cc ReadLock seq_cst store) and the fixed
  // BRAVO revocation (src/sync/bravo.cc).
  const int x = 0, y = 1;
  MemProgModel::ThreadScript t0, t1;
  t0.code.push_back(Instr::Store(x, 1, MO::kRelease));
  t1.code.push_back(Instr::Store(y, 1, MO::kRelease));
  if (fenced) {
    t0.code.push_back(Instr::Fence(MO::kSeqCst));
    t1.code.push_back(Instr::Fence(MO::kSeqCst));
  }
  t0.code.push_back(Instr::Load(0, y, MO::kAcquire));
  t1.code.push_back(Instr::Load(0, x, MO::kAcquire));
  auto model = std::make_unique<MemProgModel>(
      fenced ? "litmus-sb-fenced" : "litmus-sb", 2, 1,
      std::vector<MemProgModel::ThreadScript>{t0, t1});
  model->SetInvariant([](const MemProgModel::View& v, std::string* why) {
    if (v.AllDone() && v.Reg(0, 0) == 0 && v.Reg(1, 0) == 0) {
      *why = "SB outcome r1==r2==0 reached (both stores still buffered)";
      return false;
    }
    return true;
  });
  return model;
}

std::unique_ptr<MemProgModel> MakeMpLitmus() {
  const int data = 0, flag = 1;
  MemProgModel::ThreadScript t0, t1;
  t0.code.push_back(Instr::Store(data, 1, MO::kRelaxed));
  t0.code.push_back(Instr::Store(flag, 1, MO::kRelease));
  t1.code.push_back(Instr::Load(0, flag, MO::kAcquire));
  t1.code.push_back(Instr::Load(1, data, MO::kRelaxed));
  auto model = std::make_unique<MemProgModel>(
      "litmus-mp", 2, 2, std::vector<MemProgModel::ThreadScript>{t0, t1});
  model->SetInvariant([](const MemProgModel::View& v, std::string* why) {
    if (v.AllDone() && v.Reg(1, 0) == 1 && v.Reg(1, 1) == 0) {
      *why = "MP outcome flag==1, data==0 reached";
      return false;
    }
    return true;
  });
  return model;
}

std::unique_ptr<MemProgModel> MakeLbLitmus() {
  const int x = 0, y = 1;
  MemProgModel::ThreadScript t0, t1;
  t0.code.push_back(Instr::Load(0, x, MO::kRelaxed));
  t0.code.push_back(Instr::Store(y, 1, MO::kRelaxed));
  t1.code.push_back(Instr::Load(0, y, MO::kRelaxed));
  t1.code.push_back(Instr::Store(x, 1, MO::kRelaxed));
  auto model = std::make_unique<MemProgModel>(
      "litmus-lb", 2, 1, std::vector<MemProgModel::ThreadScript>{t0, t1});
  model->SetInvariant([](const MemProgModel::View& v, std::string* why) {
    if (v.AllDone() && v.Reg(0, 0) == 1 && v.Reg(1, 0) == 1) {
      *why = "LB outcome r1==r2==1 reached";
      return false;
    }
    return true;
  });
  return model;
}

// --- SeqCount ---------------------------------------------------------------

namespace {

// The reader script mirrors SeqCount::ReadBegin's one-load fast path
// (seqlock.h ReadBegin) followed by two protected
// reads and ReadValidate (seqlock.h ReadValidate: acquire fence + relaxed re-load).
// Sequence values stay <= 4, so "odd" is the explicit set {1, 3}.
MemProgModel::ThreadScript SeqCountReader(int seq, int d1, int d2) {
  MemProgModel::ThreadScript reader;
  reader.code = {
      Instr::Load(0, seq, MO::kAcquire),   // 0: ReadBegin first load.
      Instr::BranchEq(0, 1, 0),            // 1: odd -> writer active, retry.
      Instr::BranchEq(0, 3, 0),            // 2
      Instr::Load(1, d1, MO::kRelaxed),    // 3: read section.
      Instr::Load(2, d2, MO::kRelaxed),    // 4
      Instr::Fence(MO::kAcquire),          // 5: ReadValidate fence.
      Instr::Load(3, seq, MO::kRelaxed),   // 6: ReadValidate re-load.
  };
  return reader;
}

}  // namespace

std::unique_ptr<MemProgModel> MakeSeqCountLitmus(SeqCountVariant variant) {
  const int seq = 0, d1 = 1, d2 = 2;
  std::vector<MemProgModel::ThreadScript> threads;

  if (variant == SeqCountVariant::kAsWritten) {
    MemProgModel::ThreadScript writer;
    writer.code = {
        Instr::FetchAdd(0, seq, 1, MO::kAcqRel),  // WriteBegin (seqlock.h WriteBegin).
        Instr::Store(d1, 1, MO::kRelaxed),        // Protected field writes.
        Instr::Store(d2, 1, MO::kRelaxed),
        Instr::FetchAdd(0, seq, 1, MO::kAcqRel),  // WriteEnd (seqlock.h WriteEnd).
    };
    threads.push_back(writer);
  } else {
    // Two writers whose "increments" are non-atomic load; add; store — the
    // demotion the litmus pins as unsafe. Writer k publishes (k, k).
    for (int value = 1; value <= 2; ++value) {
      MemProgModel::ThreadScript writer;
      writer.code = {
          Instr::Load(0, seq, MO::kRelaxed),
          Instr::AddReg(0, 1),
          Instr::StoreReg(seq, 0, MO::kRelaxed),  // "WriteBegin" demoted.
          Instr::Store(d1, value, MO::kRelaxed),
          Instr::Store(d2, value, MO::kRelaxed),
          Instr::AddReg(0, 1),
          Instr::StoreReg(seq, 0, MO::kRelease),  // "WriteEnd" demoted.
      };
      threads.push_back(writer);
    }
  }
  threads.push_back(SeqCountReader(seq, d1, d2));
  const int reader = static_cast<int>(threads.size()) - 1;

  auto model = std::make_unique<MemProgModel>(
      variant == SeqCountVariant::kAsWritten ? "seqcount-publish"
                                             : "seqcount-nonatomic-increment",
      3, 4, std::move(threads));
  model->SetInvariant([reader](const MemProgModel::View& v, std::string* why) {
    if (!v.Done(reader)) {
      return true;
    }
    uint8_t snap = v.Reg(reader, 0), r1 = v.Reg(reader, 1), r2 = v.Reg(reader, 2),
            revalidate = v.Reg(reader, 3);
    if (snap != revalidate || (snap & 1) != 0) {
      return true;  // Snapshot invalidated (or never even): reader retries.
    }
    if (r1 != r2) {
      *why = "validated read section observed torn data";
      return false;
    }
    return true;
  });
  return model;
}

// --- CNA primary-queue (MCS) handoff ------------------------------------------

std::unique_ptr<MemProgModel> MakeMcsHandoffLitmus(McsVariant variant) {
  // vars: tail, next[1], next[2], locked[1], locked[2], data. Thread t
  // (0-based) models queue node id t+1; with two threads the predecessor /
  // successor can only be the other node, so pointer chasing reduces to
  // immediate indices. locked[i] models CnaNode::spin == 0 ("still
  // waiting"); the grant store clears it. Two threads on one node never
  // reach the secondary queue, so this is CnaLock's whole handoff for them.
  const int tail = 0, data = 5;
  auto next_of = [](int id) { return id; };        // next[1]=1, next[2]=2.
  auto locked_of = [](int id) { return id + 2; };  // locked[1]=3, locked[2]=4.

  std::vector<MemProgModel::ThreadScript> threads;
  int cs_begin = 0, cs_end = 0;
  for (int id = 1; id <= 2; ++id) {
    int other = 3 - id;
    MemProgModel::ThreadScript t;
    if (variant == McsVariant::kAsWritten) {
      t.code = {
          Instr::Store(next_of(id), 0, MO::kRelaxed),    //  0: node->next = null (cna_lock.cc Lock).
          Instr::Store(locked_of(id), 1, MO::kRelaxed),  //  1: node->spin = 0 (cna_lock.cc Lock).
          Instr::Exchange(0, tail, id, MO::kAcqRel),     //  2: tail.exchange (cna_lock.cc Lock).
          Instr::BranchEq(0, 0, 7),                      //  3: uncontended -> CS.
          Instr::Store(next_of(other), id, MO::kRelease),//  4: prev->next = node (cna_lock.cc Lock).
          Instr::Load(1, locked_of(id), MO::kAcquire),   //  5: spin on own node (cna_lock.cc Lock).
          Instr::BranchEq(1, 1, 5),                      //  6
          Instr::Load(2, data, MO::kRelaxed),            //  7: CS: non-atomic increment —
          Instr::AddReg(2, 1),                           //  8: the lock is the only protection.
          Instr::StoreReg(data, 2, MO::kRelaxed),        //  9
          Instr::Load(1, next_of(id), MO::kAcquire),     // 10: Unlock (cna_lock.cc Unlock).
          Instr::BranchNe(1, 0, 15),                     // 11: successor linked -> handoff.
          Instr::Cas(1, tail, id, 0, MO::kAcqRel),       // 12: no waiter? (cna_lock.cc Unlock).
          Instr::BranchEq(1, 1, 16),                     // 13: released.
          Instr::Goto(10),                               // 14: enqueuer mid-link: wait.
          Instr::Store(locked_of(other), 0, MO::kRelease),  // 15: Grant (cna_lock.cc Unlock).
      };
      cs_begin = 7;
      cs_end = 9;
    } else {
      // kNonAtomicTailSwap: acquisition demoted to load-tail-then-store-tail.
      t.code = {
          Instr::Store(next_of(id), 0, MO::kRelaxed),    //  0
          Instr::Store(locked_of(id), 1, MO::kRelaxed),  //  1
          Instr::Load(0, tail, MO::kAcquire),            //  2: BROKEN: read...
          Instr::Store(tail, id, MO::kRelaxed),          //  3: ...then write.
          Instr::BranchEq(0, 0, 8),                      //  4
          Instr::Store(next_of(other), id, MO::kRelease),//  5
          Instr::Load(1, locked_of(id), MO::kAcquire),   //  6
          Instr::BranchEq(1, 1, 6),                      //  7
          Instr::Load(2, data, MO::kRelaxed),            //  8: CS.
          Instr::AddReg(2, 1),                           //  9
          Instr::StoreReg(data, 2, MO::kRelaxed),        // 10
          Instr::Load(1, next_of(id), MO::kAcquire),     // 11
          Instr::BranchNe(1, 0, 16),                     // 12
          Instr::Cas(1, tail, id, 0, MO::kAcqRel),       // 13
          Instr::BranchEq(1, 1, 17),                     // 14
          Instr::Goto(11),                               // 15
          Instr::Store(locked_of(other), 0, MO::kRelease),  // 16
      };
      cs_begin = 8;
      cs_end = 10;
    }
    threads.push_back(std::move(t));
  }

  auto model = std::make_unique<MemProgModel>(
      variant == McsVariant::kAsWritten ? "mcs-handoff" : "mcs-nonatomic-tail-swap",
      6, 3, std::move(threads));
  model->SetInvariant([cs_begin, cs_end, data](const MemProgModel::View& v,
                                               std::string* why) {
    bool t0_in_cs = v.Pc(0) >= cs_begin && v.Pc(0) <= cs_end;
    bool t1_in_cs = v.Pc(1) >= cs_begin && v.Pc(1) <= cs_end;
    if (t0_in_cs && t1_in_cs) {
      *why = "both threads inside the MCS critical section";
      return false;
    }
    if (v.AllDone() && v.Mem(data) != 2) {
      *why = "lost update: final counter != 2";
      return false;
    }
    return true;
  });
  return model;
}

// --- LATR gather publish vs tick ---------------------------------------------

std::unique_ptr<MemProgModel> MakeLatrLitmus(LatrVariant variant) {
  // vars: the initiator's per-CPU buffer spinlock, the entry-present flag
  // (entries vector non-empty), the entry payload (ranges/runs), the
  // acked_mask word, the remaining count, and the frames-freed flag.
  const int lock = 0, published = 1, payload = 2, acked = 3, remaining = 4, freed = 5;

  MemProgModel::ThreadScript initiator;
  initiator.code = {
      Instr::Store(payload, 1, MO::kRelaxed),    // Entry fields (shootdown.cc Gather publish).
      Instr::Store(remaining, 2, MO::kRelaxed),  // remaining.store (shootdown.cc Gather publish).
      Instr::Exchange(0, lock, 1, MO::kAcquire), // SpinLock::Lock (spinlock.h Lock).
      Instr::BranchEq(0, 1, 2),
      Instr::Store(published, 1, MO::kRelaxed),  // entries.push_back.
      Instr::Store(lock, 0, MO::kRelease),       // SpinGuard unlock (spinlock.h Unlock).
  };

  // Each target runs Tick twice; the second pass must hit the HasAcked skip
  // (shootdown.cc Tick) instead of re-invalidating. Registers: r0 lock temp,
  // r1 mask snapshot, r2 payload read, r3 flush count, r4 remaining-old.
  auto target_script = [&](int bit) {
    MemProgModel::ThreadScript t;
    for (int pass = 0; pass < 2; ++pass) {
      int s = static_cast<int>(t.code.size());
      if (variant == LatrVariant::kAsWritten) {
        t.code.push_back(Instr::SetReg(4, 0));                      // s+0
        t.code.push_back(Instr::Exchange(0, lock, 1, MO::kAcquire)); // s+1: Tick lock (shootdown.cc Tick).
        t.code.push_back(Instr::BranchEq(0, 1, s + 1));             // s+2
        t.code.push_back(Instr::Load(1, published, MO::kRelaxed));  // s+3: scan entries.
        t.code.push_back(Instr::BranchEq(1, 1, s + 7));             // s+4
        t.code.push_back(Instr::Store(lock, 0, MO::kRelease));      // s+5: empty: unlock,
        t.code.push_back(Instr::Goto(s + 1));                       // s+6: retry.
        t.code.push_back(Instr::Load(1, acked, MO::kAcquire));      // s+7: HasAcked (shootdown.cc HasAcked).
        t.code.push_back(Instr::BranchEq(1, bit, s + 14));          // s+8: own bit -> skip.
        t.code.push_back(Instr::BranchEq(1, 3, s + 14));            // s+9
        t.code.push_back(Instr::Load(2, payload, MO::kRelaxed));    // s+10: flush reads ranges.
        t.code.push_back(Instr::AddReg(3, 1));                      // s+11: count the invalidation.
        t.code.push_back(Instr::FetchOr(1, acked, bit, MO::kAcqRel)); // s+12: TryAck (shootdown.cc TryAck).
        t.code.push_back(Instr::FetchAdd(4, remaining, 255, MO::kAcqRel)); // s+13: fetch_sub(1) (shootdown.cc TryAck).
        t.code.push_back(Instr::Store(lock, 0, MO::kRelease));      // s+14: unlock.
        t.code.push_back(Instr::BranchNe(4, 1, s + 17));            // s+15: last ack?
        t.code.push_back(Instr::Store(freed, 1, MO::kRelaxed));     // s+16: FinishEntry (outside lock).
      } else {
        // kNoHasAckedCheck: flush unconditionally — the pre-PR-3 re-flush bug.
        t.code.push_back(Instr::SetReg(4, 0));                      // s+0
        t.code.push_back(Instr::Exchange(0, lock, 1, MO::kAcquire)); // s+1
        t.code.push_back(Instr::BranchEq(0, 1, s + 1));             // s+2
        t.code.push_back(Instr::Load(1, published, MO::kRelaxed));  // s+3
        t.code.push_back(Instr::BranchEq(1, 1, s + 7));             // s+4
        t.code.push_back(Instr::Store(lock, 0, MO::kRelease));      // s+5
        t.code.push_back(Instr::Goto(s + 1));                       // s+6
        t.code.push_back(Instr::Load(2, payload, MO::kRelaxed));    // s+7
        t.code.push_back(Instr::AddReg(3, 1));                      // s+8
        t.code.push_back(Instr::FetchOr(1, acked, bit, MO::kAcqRel)); // s+9
        t.code.push_back(Instr::FetchAdd(4, remaining, 255, MO::kAcqRel)); // s+10
        t.code.push_back(Instr::Store(lock, 0, MO::kRelease));      // s+11
        t.code.push_back(Instr::BranchNe(4, 1, s + 14));            // s+12
        t.code.push_back(Instr::Store(freed, 1, MO::kRelaxed));     // s+13
      }
    }
    return t;
  };

  std::vector<MemProgModel::ThreadScript> threads{initiator, target_script(1),
                                                  target_script(2)};
  auto model = std::make_unique<MemProgModel>(
      variant == LatrVariant::kAsWritten ? "latr-gather-tick" : "latr-no-hasacked",
      6, 5, std::move(threads));
  model->SetInvariant([acked, freed](const MemProgModel::View& v, std::string* why) {
    for (int t = 1; t <= 2; ++t) {
      uint8_t flushes = v.Reg(t, 3);
      if (flushes > 1) {
        *why = "target re-invalidated an already-acked entry";
        return false;
      }
      if (flushes >= 1 && v.Reg(t, 2) != 1) {
        *why = "target flushed a torn (unpublished) entry";
        return false;
      }
    }
    if (v.Mem(freed) == 1 && v.Mem(acked) != 3) {
      *why = "frames freed before every target acked its flush";
      return false;
    }
    return true;
  });
  return model;
}

// --- Frame refs word drop ----------------------------------------------------

std::unique_ptr<MemProgModel> MakeFrameRefsLitmus(FrameRefsVariant variant) {
  // vars: the refs word (refcount in the low nibble, mapcount in the high
  // nibble) and the number of times the frame went back to the buddy.
  const int refs = 0, freed = 1;
  const int kInitialRefs = 0x12;  // {refcount 2, mapcount 1}.
  // A dropper of |delta| (the packed pair, as a wrapping byte subtraction)
  // that owns the frame when the prior word is |last|.
  auto dropper = [&](int delta, int last) {
    MemProgModel::ThreadScript t;
    const int minus = (0x100 - delta) & 0xff;
    if (variant == FrameRefsVariant::kAsWritten) {
      t.code = {
          Instr::FetchAdd(0, refs, minus, MO::kAcqRel),  // DropRefs (page_desc.h).
          Instr::BranchNe(0, last, 3),                   // prior.refcount != 1: not last.
          Instr::FetchAdd(1, freed, 1, MO::kRelaxed),    // BuddyAllocator::FreeFrame.
      };
    } else {
      t.code = {
          Instr::FetchAdd(0, refs, minus, MO::kAcqRel),  // Decrement, result dropped.
          Instr::Load(0, refs, MO::kAcquire),            // BROKEN: re-load to test zero.
          Instr::BranchNe(0, 0, 4),
          Instr::FetchAdd(1, freed, 1, MO::kRelaxed),
      };
    }
    return t;
  };
  // Exit: DropRefs(1, 1) owns the frame on prior {1, 1} (its own mapping is
  // the only one a last reference can carry). LATR freer: DropRefs(1, 0)
  // owns it on prior {1, 0}.
  auto model = std::make_unique<MemProgModel>(
      variant == FrameRefsVariant::kAsWritten ? "frame-refs-drop" : "frame-refs-load-after-drop",
      2, 2, std::vector<MemProgModel::ThreadScript>{dropper(0x11, 0x11), dropper(0x01, 0x01)});
  model->SetInitialMem(refs, kInitialRefs);
  model->SetInvariant([=](const MemProgModel::View& v, std::string* why) {
    uint8_t word = v.Mem(refs);
    if (v.Mem(freed) > 1) {
      *why = "frame freed twice";
      return false;
    }
    if (v.Mem(freed) == 1 && word != 0) {
      *why = "frame freed while a reference or mapping remains";
      return false;
    }
    if ((word >> 4) > (word & 0xf) || word > kInitialRefs) {
      *why = "refs word borrowed across its halves";
      return false;
    }
    if (v.AllDone() && (word != 0 || v.Mem(freed) != 1)) {
      *why = "frame leaked";
      return false;
    }
    return true;
  });
  return model;
}

// --- MmRing publish ----------------------------------------------------------

std::unique_ptr<MemProgModel> MakeRingPublishLitmus(RingVariant variant) {
  const int slot = 0, sq_tail = 1;
  MemProgModel::ThreadScript owner, combiner;
  if (variant == RingVariant::kAsWritten) {
    owner.code = {
        Instr::Store(slot, 1, MO::kRelaxed),    // pc.sq[tail % kDepth] = sqe (mm_ring.cc Submit).
        Instr::Store(sq_tail, 1, MO::kRelease), // sq_tail.store(release) (mm_ring.cc Submit).
    };
  } else {
    owner.code = {
        Instr::Store(sq_tail, 1, MO::kRelease),  // BROKEN: tail first.
        Instr::Store(slot, 1, MO::kRelaxed),
    };
  }
  combiner.code = {
      Instr::Load(0, sq_tail, MO::kAcquire),  // tail = sq_tail.load(acquire) (mm_ring.cc CombineOnce).
      Instr::BranchEq(0, 0, 3),               // Nothing pending.
      Instr::Load(1, slot, MO::kRelaxed),     // q.ops.push_back(pc.sq[...]) (mm_ring.cc CombineOnce).
  };
  auto model = std::make_unique<MemProgModel>(
      variant == RingVariant::kAsWritten ? "ring-publish" : "ring-tail-before-slot",
      2, 2, std::vector<MemProgModel::ThreadScript>{owner, combiner});
  model->SetInvariant([](const MemProgModel::View& v, std::string* why) {
    if (v.Done(1) && v.Reg(1, 0) == 1 && v.Reg(1, 1) != 1) {
      *why = "combiner drained a half-written SQE";
      return false;
    }
    return true;
  });
  return model;
}

// --- Buddy-magazine pre-zero publish -----------------------------------------

std::unique_ptr<MemProgModel> MakePrezeroLitmus(PrezeroVariant variant) {
  const int d1 = 0, d2 = 1, flag = 2;  // Two frame bytes + the zeroed flag.
  MemProgModel::ThreadScript scrubber, consumer;
  if (variant == PrezeroVariant::kAsWritten) {
    scrubber.code = {
        Instr::Store(d1, 0, MO::kRelaxed),   // mem.ZeroFrame(...) (buddy.cc ScrubBatch).
        Instr::Store(d2, 0, MO::kRelaxed),
        Instr::Store(flag, 1, MO::kRelease), // zeroed.store(true, release) (buddy.cc ScrubBatch).
    };
  } else {
    scrubber.code = {
        Instr::Store(flag, 1, MO::kRelease),  // BROKEN: flag before the zeroing.
        Instr::Store(d1, 0, MO::kRelaxed),
        Instr::Store(d2, 0, MO::kRelaxed),
    };
  }
  consumer.code = {
      Instr::Load(0, flag, MO::kAcquire),  // zeroed.load(acquire) (buddy.cc AllocRaw).
      Instr::BranchEq(0, 0, 5),            // Miss: inline memset fallback.
      Instr::Load(1, d1, MO::kRelaxed),    // Hit: trust the scrubbed bytes.
      Instr::Load(2, d2, MO::kRelaxed),
      Instr::Goto(9),
      Instr::Store(d1, 0, MO::kRelaxed),   // Inline memset (buddy.cc inline zero path).
      Instr::Store(d2, 0, MO::kRelaxed),
      Instr::SetReg(1, 0),
      Instr::SetReg(2, 0),
  };
  auto model = std::make_unique<MemProgModel>(
      variant == PrezeroVariant::kAsWritten ? "prezero-publish" : "prezero-flag-first",
      3, 3, std::vector<MemProgModel::ThreadScript>{scrubber, consumer});
  model->SetInitialMem(d1, 1);  // Frames start dirty.
  model->SetInitialMem(d2, 1);
  model->SetInvariant([](const MemProgModel::View& v, std::string* why) {
    if (v.Done(1) && (v.Reg(1, 1) != 0 || v.Reg(1, 2) != 0)) {
      *why = "AllocZeroedFrame handed out a dirty byte";
      return false;
    }
    return true;
  });
  return model;
}

// --- BRAVO bias revocation ---------------------------------------------------

std::unique_ptr<MemProgModel> MakeBravoRevokeLitmus(BravoVariant variant) {
  const int rbias = 0, slot = 1;

  // Reader: bravo.cc ReadLock fast path. In CS at pc 6..7.
  MemProgModel::ThreadScript reader;
  reader.code = {
      Instr::Load(0, rbias, MO::kAcquire),    // 0: rbias check (bravo.cc ReadLock).
      Instr::BranchEq(0, 0, 10),              // 1: bias off -> underlying path.
      Instr::Cas(1, slot, 0, 1, MO::kAcqRel), // 2: publish in the table (bravo.cc ReadLock).
      Instr::BranchEq(1, 0, 10),              // 3: slot taken -> underlying path.
      Instr::Load(2, rbias, MO::kAcquire),    // 4: re-check (bravo.cc ReadLock).
      Instr::BranchEq(2, 0, 9),               // 5: revoked -> back out.
      Instr::SetReg(0, 2),                    // 6: === fast-path read section ===
      Instr::Store(slot, 0, MO::kRelease),    // 7: ReadUnlock (bravo.cc ReadUnlock).
      Instr::Goto(10),                        // 8
      Instr::Store(slot, 0, MO::kRelease),    // 9: clear after losing the race.
  };
  const int reader_cs_begin = 6, reader_cs_end = 7;

  // Writer: bravo.cc WriteLock revocation (it already holds the underlying
  // phase-fair lock; only the bias protocol is modeled). In CS from the
  // penultimate instruction on.
  MemProgModel::ThreadScript writer;
  writer.code.push_back(Instr::Load(0, rbias, MO::kAcquire));  // bravo.cc WriteLock.
  const int writer_scan = variant == BravoVariant::kFenced ? 4 : 3;
  const int writer_cs = writer_scan + 2;
  writer.code.push_back(Instr::BranchEq(0, 0, writer_cs));     // Bias already off.
  writer.code.push_back(Instr::Store(rbias, 0, MO::kRelease)); // Revoke (bravo.cc WriteLock).
  if (variant == BravoVariant::kFenced) {
    // THE FIX: the StoreLoad fence between the revocation store and the scan
    // loads (bravo.cc, added by this PR). Without it, x86 runs the scan
    // against memory while rbias=false waits in the store buffer.
    writer.code.push_back(Instr::Fence(MO::kSeqCst));
  }
  writer.code.push_back(Instr::Load(1, slot, MO::kAcquire));   // Scan (bravo.cc WriteLock).
  writer.code.push_back(Instr::BranchNe(1, 0, writer_scan));   // Spin until clear.
  writer.code.push_back(Instr::SetReg(0, 3));                  // === write section ===

  auto model = std::make_unique<MemProgModel>(
      variant == BravoVariant::kFenced ? "bravo-revoke-fenced" : "bravo-revoke-nofence",
      2, 3, std::vector<MemProgModel::ThreadScript>{reader, writer});
  model->SetInitialMem(rbias, 1);
  model->SetInvariant([reader_cs_begin, reader_cs_end, writer_cs](
                          const MemProgModel::View& v, std::string* why) {
    bool reader_in = v.Pc(0) >= reader_cs_begin && v.Pc(0) <= reader_cs_end;
    bool writer_in = v.Pc(1) >= writer_cs;
    if (reader_in && writer_in) {
      *why = "fast-path reader inside the write critical section";
      return false;
    }
    return true;
  });
  return model;
}

// --- CNA park/wake handoff ---------------------------------------------------

std::unique_ptr<MemProgModel> MakeCnaHandoffLitmus(CnaVariant variant) {
  const bool fenced = variant == CnaVariant::kFenced;
  const int spin = 0, parked = 1, wake = 2;

  // Waiter: cna_lock.cc Lock(), the park loop after the spin phase expires.
  // spin.wait(0) is modeled as a loop on a separate `wake` token: a real
  // futex sleeper is only released by a FUTEX_WAKE, and the kernel-side
  // recheck of the futex word is the acquire load at the recheck pc — once
  // that read 0 and the thread blocks, only the notify can release it.
  MemProgModel::ThreadScript waiter;
  waiter.code.push_back(Instr::Store(parked, 1, MO::kRelease));  // parked.store(1) (Lock).
  if (fenced) {
    // THE FENCE: StoreLoad between the parked store and the spin recheck
    // (cna_lock.cc Lock). Without it the recheck runs against memory while
    // parked=1 waits in the store buffer.
    waiter.code.push_back(Instr::Fence(MO::kSeqCst));
  }
  const int sleep_begin = fenced ? 4 : 3;
  const int sleep_end = sleep_begin + 1;
  const int awake = sleep_end + 1;
  waiter.code.push_back(Instr::Load(0, spin, MO::kAcquire));   // recheck before wait (Lock).
  waiter.code.push_back(Instr::BranchNe(0, 0, awake));         // grant visible -> no sleep.
  waiter.code.push_back(Instr::Load(1, wake, MO::kAcquire));   // spin.wait(0): asleep...
  waiter.code.push_back(Instr::BranchEq(1, 0, sleep_begin));   // ...until a wake is posted.
  waiter.code.push_back(Instr::SetReg(2, 1));                  // === lock acquired ===

  // Granter: cna_lock.cc Grant() — the unlocker half of the handoff.
  MemProgModel::ThreadScript granter;
  granter.code.push_back(Instr::Store(spin, 1, MO::kRelease));  // spin.store(grant) (Grant).
  if (fenced) {
    // THE FENCE: StoreLoad between the grant store and the parked check
    // (cna_lock.cc Grant) — the granter half of the same SB shape.
    granter.code.push_back(Instr::Fence(MO::kSeqCst));
  }
  const int done = fenced ? 5 : 4;
  granter.code.push_back(Instr::Load(0, parked, MO::kAcquire)); // parked.load() (Grant).
  granter.code.push_back(Instr::BranchEq(0, 0, done));          // reads 0 -> skip the notify.
  granter.code.push_back(Instr::Store(wake, 1, MO::kRelease));  // spin.notify_one() (Grant).
  granter.code.push_back(Instr::SetReg(1, 1));                  // === handoff complete ===

  auto model = std::make_unique<MemProgModel>(
      fenced ? "cna-handoff-fenced" : "cna-handoff-nofence",
      3, 3, std::vector<MemProgModel::ThreadScript>{waiter, granter});
  model->SetInvariant([sleep_begin, sleep_end, wake](
                          const MemProgModel::View& v, std::string* why) {
    // Lost wakeup: the granter finished via the skip branch (its parked load
    // returned 0, reg0 == 0) while the waiter sits in the sleep loop with no
    // wake token in memory. Nothing can ever store `wake` again — the skip
    // branch bypassed the only store — so this state is a permanent sleep.
    bool granter_skipped = v.Done(1) && v.Reg(1, 0) == 0;
    bool waiter_asleep = v.Pc(0) >= sleep_begin && v.Pc(0) <= sleep_end;
    if (granter_skipped && waiter_asleep && v.Mem(wake) == 0) {
      *why = "lost wakeup: granter skipped the notify while the waiter sleeps";
      return false;
    }
    return true;
  });
  return model;
}

}  // namespace cortenmm
