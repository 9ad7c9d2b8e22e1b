#include "pir/eval.hpp"

#include "base/logging.hpp"
#include "sim/execplan.hpp"
#include "sim/fuexec.hpp"

namespace plast::pir
{

Evaluator::Evaluator(const Program &prog, uint32_t lanes)
    : prog_(prog), lanes_(lanes)
{
    memData_.resize(prog.mems.size());
    fifoFill_.assign(prog.mems.size(), 0);
    for (size_t i = 0; i < prog.mems.size(); ++i)
        memData_[i].assign(prog.mems[i].sizeWords, 0);
    ctrVal_.assign(prog.ctrs.size(), 0);
    argOuts_.resize(prog.numArgOuts);

    clearLists_.resize(prog.nodes.size());
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        NodeId at = prog.mems[m].clearAt;
        if (at >= 0 && static_cast<size_t>(at) < prog.nodes.size())
            clearLists_[at].push_back(static_cast<MemId>(m));
    }
    serial_.assign(prog.nodes.size(), false);
    for (size_t i = 0; i < prog.nodes.size(); ++i) {
        if (prog.nodes[i].kind == NodeKind::kCompute)
            serial_[i] = laneOrderHazard(static_cast<NodeId>(i));
    }
    ctrLevel_.assign(prog.ctrs.size(), -1);
    slot_.resize(prog.exprs.size());
    val_.assign(prog.exprs.size() * lanes, 0);
    kernel_.assign(prog.exprs.size(), nullptr);
    for (size_t i = 0; i < prog.exprs.size(); ++i) {
        if (prog.exprs[i].kind == ExprKind::kAlu)
            kernel_[i] = mapKernelFor(prog.exprs[i].alu);
    }
}

bool
Evaluator::laneOrderHazard(NodeId leafId) const
{
    // Memories the leaf's sinks write, then every memory (and scalar
    // stream) read by an expression reachable from those sinks.
    const Node &leaf = prog_.nodes[leafId];
    std::vector<bool> written(prog_.mems.size(), false);
    std::vector<ExprId> todo;
    for (const Sink &sk : leaf.sinks) {
        MemId w = kNone;
        switch (sk.kind) {
          case SinkKind::kStoreSram:
          case SinkKind::kFlatMapSram:
            w = sk.mem;
            break;
          case SinkKind::kFold:
            if (sk.dest == FoldDest::kSramAddr)
                w = sk.mem;
            break;
          case SinkKind::kStreamOut:
          case SinkKind::kScatterOut:
            w = sk.dram;
            break;
        }
        if (w >= 0 && static_cast<size_t>(w) < written.size())
            written[w] = true;
        for (ExprId r : {sk.value, sk.addr, sk.postScale, sk.postOffset,
                         sk.pred, sk.dramAddr, sk.scatterPred})
            todo.push_back(r);
    }
    auto writes = [&](MemId m) {
        return m >= 0 && static_cast<size_t>(m) < written.size() &&
               written[m];
    };
    std::vector<bool> seen(prog_.exprs.size(), false);
    while (!todo.empty()) {
        ExprId id = todo.back();
        todo.pop_back();
        if (id < 0 || static_cast<size_t>(id) >= seen.size() || seen[id])
            continue;
        seen[id] = true;
        const Expr &e = prog_.exprs[id];
        switch (e.kind) {
          case ExprKind::kAlu:
            todo.insert(todo.end(), {e.a, e.b, e.c});
            break;
          case ExprKind::kLoadSram:
            if (writes(e.mem))
                return true;
            todo.push_back(e.addr);
            break;
          case ExprKind::kStreamIn:
            if (e.stream >= 0 &&
                static_cast<size_t>(e.stream) < leaf.streamIns.size()) {
                const StreamIn &si = leaf.streamIns[e.stream];
                if (writes(si.dram))
                    return true;
                todo.push_back(si.addr);
            }
            break;
          case ExprKind::kScalarIn:
            if (e.scalar >= 0 &&
                static_cast<size_t>(e.scalar) < leaf.scalarIns.size() &&
                leaf.scalarIns[e.scalar].fromNode == leafId)
                return true;
            break;
          default:
            break;
        }
    }
    return false;
}

std::vector<Word> &
Evaluator::dramBuf(MemId id)
{
    panic_if(prog_.mems.at(id).kind != MemKind::kDram,
             "dramBuf on non-DRAM memory");
    return memData_[id];
}

const std::vector<Word> &
Evaluator::dramBuf(MemId id) const
{
    panic_if(prog_.mems.at(id).kind != MemKind::kDram,
             "dramBuf on non-DRAM memory");
    return memData_[id];
}

const std::vector<Word> &
Evaluator::sramBuf(MemId id) const
{
    return memData_.at(id);
}

const std::vector<Word> &
Evaluator::argOuts(int32_t slot) const
{
    return argOuts_.at(slot);
}

int64_t
Evaluator::boundOf(const CtrDecl &c) const
{
    if (c.boundArg != kNone)
        return wordToInt(prog_.args.at(c.boundArg).value);
    if (c.boundSinkNode != kNone) {
        auto it = lastScalar_.find({c.boundSinkNode, c.boundSinkIdx});
        int64_t v =
            it == lastScalar_.end() ? 0 : wordToInt(it->second);
        return v * c.boundScale;
    }
    return c.max;
}

void
Evaluator::run()
{
    execNode(prog_.root);
}

void
Evaluator::execNode(NodeId id)
{
    const Node &n = prog_.nodes[id];
    switch (n.kind) {
      case NodeKind::kOuter: {
        // Recurse over the outer counters; schemes (sequential /
        // metapipe / stream) are performance-only and share functional
        // semantics.
        // Iterative nested loop over n.ctrs.
        const std::vector<MemId> &clears = clearLists_[id];
        auto clear_gen_mems = [&]() {
            for (MemId m : clears)
                std::fill(memData_[m].begin(), memData_[m].end(), 0);
        };
        std::vector<int64_t> idx(n.ctrs.size());
        size_t depth = 0;
        if (n.ctrs.empty()) {
            clear_gen_mems();
            for (NodeId c : n.children)
                execNode(c);
            return;
        }
        // Initialize.
        idx[0] = prog_.ctrs[n.ctrs[0]].min;
        while (true) {
            const CtrDecl &cd = prog_.ctrs[n.ctrs[depth]];
            if (idx[depth] >= boundOf(cd)) {
                if (depth == 0)
                    break;
                --depth;
                idx[depth] += prog_.ctrs[n.ctrs[depth]].step;
                continue;
            }
            ctrVal_[n.ctrs[depth]] = idx[depth];
            if (depth + 1 < n.ctrs.size()) {
                ++depth;
                idx[depth] = prog_.ctrs[n.ctrs[depth]].min;
                continue;
            }
            clear_gen_mems();
            for (NodeId c : n.children)
                execNode(c);
            idx[depth] += cd.step;
        }
        return;
      }
      case NodeKind::kTransfer:
        execTransfer(n);
        return;
      case NodeKind::kCompute:
        execCompute(n);
        return;
    }
}

void
Evaluator::execTransfer(const Node &n)
{
    const TransferDesc &x = n.xfer;
    std::vector<Word> &dram = memData_[x.dram];
    if (x.sparse) {
        int64_t count = x.rowWords;
        if (x.countSinkNode != kNone) {
            auto it = lastScalar_.find({x.countSinkNode, x.countSinkIdx});
            count = it == lastScalar_.end() ? 0 : wordToInt(it->second);
            count *= x.countScale;
        }
        std::vector<Word> &addrs = memData_[x.addrMem];
        std::vector<Word> &sramv = memData_[x.sram];
        for (int64_t i = 0; i < count; ++i) {
            Word a = addrs.at(static_cast<size_t>(i));
            sramv.at(static_cast<size_t>(i)) = dram.at(a);
            ++counts_.dramWordsRead;
            ++counts_.sramWordsWritten;
        }
        return;
    }

    leaf_ = &n;
    ++epoch_;
    int64_t base = wordToInt(evalLane(x.base, 0));
    int64_t row_words = x.rowWordsArg != kNone
                            ? wordToInt(prog_.args[x.rowWordsArg].value)
                            : x.rowWords;
    std::vector<Word> &sramv = memData_[x.sram];
    for (int64_t r = 0; r < x.rows; ++r) {
        for (int64_t w = 0; w < row_words; ++w) {
            size_t di = static_cast<size_t>(base + r * x.dramRowStride + w);
            size_t si = static_cast<size_t>(r * x.sramRowStride + w);
            if (x.load) {
                sramv.at(si) = dram.at(di);
                ++counts_.dramWordsRead;
                ++counts_.sramWordsWritten;
            } else {
                dram.at(di) = sramv.at(si);
                ++counts_.dramWordsWritten;
                ++counts_.sramWordsRead;
            }
        }
    }
}

void
Evaluator::evalVec(ExprId id, uint32_t need)
{
    Slot &slot = slot_[id];
    if (slot.epoch != epoch_) {
        slot.epoch = epoch_;
        slot.done = 0;
    }
    const uint32_t todo = need & ~slot.done;
    if (todo == 0)
        return;
    const Expr &e = prog_.exprs[id];
    Word *out = vals(id);
    auto each = [todo](auto &&f) {
        for (uint32_t m = todo; m != 0; m &= m - 1)
            f(static_cast<uint32_t>(__builtin_ctz(m)));
    };
    auto fill = [&](Word v) { each([&](uint32_t l) { out[l] = v; }); };
    const uint64_t lanes = static_cast<uint64_t>(__builtin_popcount(todo));
    switch (e.kind) {
      case ExprKind::kConst:
        fill(e.cval);
        break;
      case ExprKind::kArg:
        fill(prog_.args[e.arg].value);
        break;
      case ExprKind::kCtr: {
        // Leaf counter: per-lane wavefront value; outer counter: the
        // enclosing controller's current index.
        int8_t level = ctrLevel_[e.ctr];
        if (level < 0) {
            fill(static_cast<Word>(ctrVal_[e.ctr]));
        } else {
            each([&](uint32_t l) {
                out[l] = static_cast<Word>(
                    wf_.ctrLane(static_cast<uint8_t>(level), l));
            });
        }
        break;
      }
      case ExprKind::kAlu: {
        static const std::array<Word, kMaxLanes> kZero{};
        if (e.a != kNone)
            evalVec(e.a, todo);
        if (e.b != kNone)
            evalVec(e.b, todo);
        if (e.c != kNone)
            evalVec(e.c, todo);
        const Word *a = e.a != kNone ? vals(e.a) : kZero.data();
        const Word *b = e.b != kNone ? vals(e.b) : kZero.data();
        const Word *c = e.c != kNone ? vals(e.c) : kZero.data();
        // A lane prefix runs the monomorphic kernel; other masks (and
        // ops without one) go lane by lane through the checked fuExec.
        if (kernel_[id] && (todo & (todo + 1)) == 0) {
            kernel_[id](a, b, c, out, static_cast<uint32_t>(lanes));
        } else {
            each([&](uint32_t l) {
                out[l] = fuExec(e.alu, a[l], b[l], c[l]);
            });
        }
        counts_.aluOps += lanes;
        break;
      }
      case ExprKind::kLoadSram: {
        evalVec(e.addr, todo);
        const Word *addr = vals(e.addr);
        const std::vector<Word> &m = memData_[e.mem];
        each([&](uint32_t l) { out[l] = m.at(addr[l]); });
        counts_.sramWordsRead += lanes;
        break;
      }
      case ExprKind::kStreamIn: {
        const StreamIn &si = leaf_->streamIns.at(e.stream);
        evalVec(si.addr, todo);
        const Word *addr = vals(si.addr);
        const std::vector<Word> &m = memData_[si.dram];
        each([&](uint32_t l) { out[l] = m.at(addr[l]); });
        counts_.dramWordsRead += lanes;
        break;
      }
      case ExprKind::kScalarIn: {
        const ScalarIn &si = leaf_->scalarIns.at(e.scalar);
        auto it = lastScalar_.find({si.fromNode, si.fromSink});
        fill(it == lastScalar_.end() ? 0 : it->second);
        break;
      }
      case ExprKind::kLaneId:
        each([&](uint32_t l) { out[l] = l; });
        break;
    }
    slot.done |= todo;
}

void
Evaluator::execCompute(const Node &n)
{
    // Build the leaf counter chain.
    ChainCfg ccfg;
    std::vector<int64_t> bounds;
    for (CtrId cid : n.leafCtrs) {
        const CtrDecl &cd = prog_.ctrs[cid];
        CounterCfg cc;
        cc.min = cd.min;
        cc.step = cd.step;
        cc.max = 0;
        cc.vectorized = cd.vectorized;
        ccfg.ctrs.push_back(cc);
        bounds.push_back(boundOf(cd));
    }
    ChainState chain;
    chain.configure(ccfg, lanes_);
    chain.reset(bounds);

    // Per-fold accumulators.
    struct FoldState
    {
        std::array<Word, kMaxLanes> acc{};
        int levelIdx = 0;
    };
    std::vector<FoldState> folds(n.sinks.size());
    std::vector<uint64_t> flatCounts(n.sinks.size(), 0);
    for (size_t s = 0; s < n.sinks.size(); ++s) {
        const Sink &sk = n.sinks[s];
        if (sk.kind == SinkKind::kFold) {
            int idx = -1;
            for (size_t i = 0; i < n.leafCtrs.size(); ++i) {
                if (n.leafCtrs[i] == sk.foldLevel)
                    idx = static_cast<int>(i);
            }
            fatal_if(idx < 0, "fold level not among leaf counters in %s",
                     n.name.c_str());
            folds[s].levelIdx = idx;
        }
        if (sk.kind == SinkKind::kFlatMapSram)
            fifoFill_[sk.mem] = 0; // fresh append region per run
        // Default accumulation generation: fresh per writer run.
        bool accum = (sk.kind == SinkKind::kStoreSram && sk.accumulate) ||
                     (sk.kind == SinkKind::kFold &&
                      sk.dest == FoldDest::kSramAddr && sk.accumulate);
        if (accum && prog_.mems[sk.mem].clearAt == kNone)
            std::fill(memData_[sk.mem].begin(), memData_[sk.mem].end(),
                      0);
    }

    // Lane-batched unless the leaf is lane-order sensitive: `pre`
    // computes an expression over exactly the lanes the per-lane loops
    // below will read, which then find every value cached.
    NodeId my_id = static_cast<NodeId>(&n - prog_.nodes.data());
    const bool serial = serial_[my_id];
    auto pre = [&](ExprId e, uint32_t mask) {
        if (!serial && e != kNone)
            evalVec(e, mask);
    };
    // Lanes of `mask` where a prefetched predicate is true.
    auto truthy = [&](ExprId e, uint32_t mask) {
        uint32_t keep = 0;
        if (!serial && e != kNone) {
            for (uint32_t m = mask; m != 0; m &= m - 1) {
                uint32_t l = static_cast<uint32_t>(__builtin_ctz(m));
                if (vals(e)[l] != 0)
                    keep |= 1u << l;
            }
        }
        return keep;
    };
    for (size_t i = n.leafCtrs.size(); i-- > 0;)
        ctrLevel_[n.leafCtrs[i]] = static_cast<int8_t>(i);
    leaf_ = &n;
    Wavefront &wf = wf_;

    while (!chain.done()) {
        chain.issueInto(wf);
        ++counts_.wavefronts;
        ++epoch_;

        const uint32_t valid = wf.mask;
        for (size_t s = 0; s < n.sinks.size(); ++s) {
            const Sink &sk = n.sinks[s];
            switch (sk.kind) {
              case SinkKind::kStoreSram: {
                // FIFO-mode memories are queues: the sequential
                // evaluator keeps every element that streams through
                // (index = enqueue position), so the later consumer
                // observes the same order as the hardware pops.
                bool fifo =
                    prog_.mems[sk.mem].mode == BankingMode::kFifo;
                pre(sk.addr, valid);
                pre(sk.value, valid);
                for (uint32_t l = 0; l < lanes_; ++l) {
                    if (!wf.valid(l))
                        continue;
                    Word a = evalLane(sk.addr, l);
                    Word v = evalLane(sk.value, l);
                    std::vector<Word> &m = memData_[sk.mem];
                    if (fifo && a >= m.size())
                        m.resize(a + 1, 0);
                    if (sk.accumulate)
                        v = fuExec(sk.accumOp, m.at(a), v, 0);
                    m.at(a) = v;
                    ++counts_.sramWordsWritten;
                }
                break;
              }
              case SinkKind::kFold: {
                FoldState &fs = folds[s];
                uint8_t lvl = static_cast<uint8_t>(fs.levelIdx);
                if (wf.firstAtLevel(lvl))
                    fs.acc.fill(fuOpIdentity(sk.foldOp));
                pre(sk.value, valid);
                if (sk.crossLane) {
                    // Pairwise tree with identity fill — same order as
                    // the PCU reduction network.
                    std::array<Word, kMaxLanes> v{};
                    for (uint32_t l = 0; l < lanes_; ++l) {
                        v[l] = wf.valid(l)
                                   ? evalLane(sk.value, l)
                                   : fuOpIdentity(sk.foldOp);
                    }
                    for (uint32_t dist = 1; dist < lanes_; dist *= 2) {
                        for (uint32_t i = 0; i + dist < lanes_;
                             i += 2 * dist)
                            v[i] = fuExec(sk.foldOp, v[i],
                                           v[i + dist], 0);
                    }
                    fs.acc[0] = fuExec(sk.foldOp, fs.acc[0], v[0], 0);
                } else {
                    for (uint32_t l = 0; l < lanes_; ++l) {
                        if (wf.valid(l)) {
                            fs.acc[l] = fuExec(
                                sk.foldOp, fs.acc[l],
                                evalLane(sk.value, l), 0);
                        }
                    }
                }
                auto post = [&](Word v, uint32_t lane) -> Word {
                    if (sk.postScale == kNone && sk.postOffset == kNone)
                        return v;
                    Word sc = sk.postScale != kNone
                                  ? evalLane(sk.postScale, lane)
                                  : floatToWord(1.0f);
                    Word of = sk.postOffset != kNone
                                  ? evalLane(sk.postOffset, lane)
                                  : floatToWord(0.0f);
                    return fuExec(FuOp::kFMA, v, sc, of);
                };
                if (wf.lastAtLevel(lvl)) {
                    if (sk.dest == FoldDest::kArgOut) {
                        argOuts_.at(sk.argOut).push_back(
                            post(fs.acc[0], 0));
                    } else if (sk.dest == FoldDest::kScalarStream) {
                        lastScalar_[{my_id, static_cast<int32_t>(s)}] =
                            post(fs.acc[0], 0);
                    } else if (sk.crossLane) {
                        Word a = evalLane(sk.addr, 0);
                        std::vector<Word> &m = memData_[sk.mem];
                        Word v = post(fs.acc[0], 0);
                        if (sk.accumulate)
                            v = fuExec(sk.accumOp, m.at(a), v, 0);
                        m.at(a) = v;
                        ++counts_.sramWordsWritten;
                    } else {
                        pre(sk.addr, valid);
                        pre(sk.postScale, valid);
                        pre(sk.postOffset, valid);
                        for (uint32_t l = 0; l < lanes_; ++l) {
                            if (!wf.valid(l))
                                continue;
                            Word a = evalLane(sk.addr, l);
                            std::vector<Word> &m = memData_[sk.mem];
                            Word v = post(fs.acc[l], l);
                            if (sk.accumulate)
                                v = fuExec(sk.accumOp, m.at(a), v, 0);
                            m.at(a) = v;
                            ++counts_.sramWordsWritten;
                        }
                    }
                }
                break;
              }
              case SinkKind::kFlatMapSram: {
                pre(sk.pred, valid);
                pre(sk.value, truthy(sk.pred, valid));
                for (uint32_t l = 0; l < lanes_; ++l) {
                    if (!wf.valid(l))
                        continue;
                    if (evalLane(sk.pred, l) == 0)
                        continue;
                    Word v = evalLane(sk.value, l);
                    memData_[sk.mem].at(fifoFill_[sk.mem]++) = v;
                    ++flatCounts[s];
                    ++counts_.sramWordsWritten;
                }
                break;
              }
              case SinkKind::kStreamOut: {
                pre(sk.dramAddr, valid);
                pre(sk.value, valid);
                for (uint32_t l = 0; l < lanes_; ++l) {
                    if (!wf.valid(l))
                        continue;
                    Word a = evalLane(sk.dramAddr, l);
                    memData_[sk.dram].at(a) = evalLane(sk.value, l);
                    ++counts_.dramWordsWritten;
                }
                break;
              }
              case SinkKind::kScatterOut: {
                uint32_t keep = valid;
                if (sk.scatterPred != kNone) {
                    pre(sk.scatterPred, valid);
                    keep = truthy(sk.scatterPred, valid);
                }
                pre(sk.dramAddr, keep);
                pre(sk.value, keep);
                for (uint32_t l = 0; l < lanes_; ++l) {
                    if (!wf.valid(l))
                        continue;
                    if (sk.scatterPred != kNone &&
                        evalLane(sk.scatterPred, l) == 0)
                        continue;
                    Word a = evalLane(sk.dramAddr, l);
                    memData_[sk.dram].at(a) = evalLane(sk.value, l);
                    ++counts_.dramWordsWritten;
                }
                break;
              }
            }
        }
    }
    for (CtrId cid : n.leafCtrs)
        ctrLevel_[cid] = -1;

    // End-of-run FlatMap bookkeeping.
    for (size_t s = 0; s < n.sinks.size(); ++s) {
        const Sink &sk = n.sinks[s];
        if (sk.kind != SinkKind::kFlatMapSram)
            continue;
        Word count = static_cast<Word>(flatCounts[s]);
        lastScalar_[{my_id, static_cast<int32_t>(s)}] = count;
        if (sk.countArgOut != kNone)
            argOuts_.at(sk.countArgOut).push_back(count);
    }
}

} // namespace plast::pir
