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
    scalarBase_.resize(prog.nodes.size());
    size_t scalars = 0;
    for (size_t i = 0; i < prog.nodes.size(); ++i) {
        scalarBase_[i] = scalars;
        scalars += prog.nodes[i].sinks.size();
    }
    scalars_.assign(scalars, 0);
    ctrLevel_.assign(prog.ctrs.size(), -1);
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

Word
Evaluator::scalarOf(NodeId node, int32_t sink) const
{
    if (node < 0 || static_cast<size_t>(node) >= prog_.nodes.size() ||
        sink < 0 ||
        static_cast<size_t>(sink) >= prog_.nodes[node].sinks.size())
        return 0;
    return scalars_[scalarBase_[node] + static_cast<size_t>(sink)];
}

int64_t
Evaluator::boundOf(const CtrDecl &c) const
{
    if (c.boundArg != kNone)
        return wordToInt(prog_.args.at(c.boundArg).value);
    if (c.boundSinkNode != kNone) {
        int64_t v = wordToInt(scalarOf(c.boundSinkNode, c.boundSinkIdx));
        return v * c.boundScale;
    }
    return c.max;
}

void
Evaluator::run()
{
    leaves_.assign(prog_.nodes.size(), LeafProgram{});
    slot_.assign(prog_.exprs.size(), Slot{});
    val_.assign((prog_.exprs.size() + 1) * lanes_, 0);
    srcBits_.assign(prog_.exprs.size(), 0);
    mark_.assign(prog_.exprs.size(), 0);
    execNode(prog_.root);
    // A finished Evaluator often outlives its run only to hold outputs
    // (one per validated case), so free what the run alone needs.
    leaves_ = std::vector<LeafProgram>();
    slot_ = std::vector<Slot>();
    val_ = std::vector<Word>();
    srcBits_ = std::vector<uint64_t>();
    mark_ = std::vector<uint32_t>();
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
            count = wordToInt(scalarOf(x.countSinkNode, x.countSinkIdx));
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

namespace
{

/** Call f(lane) for each set bit of `mask`, lowest lane first. */
template <class F>
inline void
forLanes(uint32_t mask, F &&f)
{
    for (uint32_t m = mask; m != 0; m &= m - 1)
        f(static_cast<uint32_t>(__builtin_ctz(m)));
}

/** True if `mask` is a (possibly empty) run of lanes from lane 0. */
inline bool
isPrefix(uint32_t mask)
{
    return (mask & (mask + 1)) == 0;
}

} // namespace

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
        // Only lane-serial leaves get here, one lane at a time. Lane 0
        // is a lane prefix and runs the kernel, as in a leaf program:
        // the two differ in the payload of some NaN results (kFMA).
        if (kernel_[id] && isPrefix(todo)) {
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
        fill(scalarOf(si.fromNode, si.fromSink));
        break;
      }
      case ExprKind::kLaneId:
        each([&](uint32_t l) { out[l] = l; });
        break;
    }
    slot.done |= todo;
}

Word
Evaluator::invariantValue(const Node &leaf, const Expr &e) const
{
    switch (e.kind) {
      case ExprKind::kConst:
        return e.cval;
      case ExprKind::kArg:
        return prog_.args.at(e.arg).value;
      case ExprKind::kCtr:
        return static_cast<Word>(ctrVal_.at(e.ctr));
      case ExprKind::kScalarIn: {
        const ScalarIn &si = leaf.scalarIns.at(e.scalar);
        return scalarOf(si.fromNode, si.fromSink);
      }
      case ExprKind::kStreamIn:
        (void)leaf.streamIns.at(e.stream); // lowered only when it throws
        break;
      default:
        break;
    }
    return 0;
}

void
Evaluator::lower(NodeId id, LeafProgram &lp)
{
    const Node &n = prog_.nodes[id];
    lp.built = true;
    ChainCfg ccfg;
    for (CtrId cid : n.leafCtrs) {
        const CtrDecl &cd = prog_.ctrs[cid];
        CounterCfg cc;
        cc.min = cd.min;
        cc.step = cd.step;
        cc.max = 0;
        cc.vectorized = cd.vectorized;
        ccfg.ctrs.push_back(cc);
    }
    lp.chain.configure(ccfg, lanes_);
    lp.bounds.assign(n.leafCtrs.size(), 0);
    lp.sinks.assign(n.sinks.size(), SinkState{});
    for (size_t s = 0; s < n.sinks.size(); ++s) {
        const Sink &sk = n.sinks[s];
        if (sk.kind != SinkKind::kFold)
            continue;
        int idx = -1;
        for (size_t i = 0; i < n.leafCtrs.size(); ++i) {
            if (n.leafCtrs[i] == sk.foldLevel)
                idx = static_cast<int>(i);
        }
        fatal_if(idx < 0, "fold level not among leaf counters in %s",
                 n.name.c_str());
        lp.sinks[s].level = static_cast<uint8_t>(idx);
    }
    if (serial_[id])
        return;

    // ---- lane-mask sources and the expressions each one requests ----
    const uint32_t zero_row =
        static_cast<uint32_t>(prog_.exprs.size() * lanes_);
    auto row = [&](ExprId e) {
        return e == kNone ? zero_row : static_cast<uint32_t>(e) * lanes_;
    };
    lp.sources.assign(1, Source{}); // 0: valid lanes, every wavefront
    std::vector<std::pair<ExprId, uint32_t>> roots;
    auto request = [&](ExprId e, uint32_t src) {
        if (e != kNone)
            roots.push_back({e, src});
    };
    // One source per distinct mask: sinks sharing a predicate row or a
    // fold end (level, lane 0 or valid lanes) share a source.
    auto add_source = [&](Source src) {
        for (size_t k = 1; k < lp.sources.size(); ++k) {
            const Source &o = lp.sources[k];
            if (o.kind == src.kind && o.level == src.level &&
                o.lane0 == src.lane0 && o.pred == src.pred)
                return static_cast<uint32_t>(k);
        }
        lp.sources.push_back(src);
        return static_cast<uint32_t>(lp.sources.size() - 1);
    };
    for (size_t s = 0; s < n.sinks.size(); ++s) {
        const Sink &sk = n.sinks[s];
        SinkState &ss = lp.sinks[s];
        ss.value = row(sk.value);
        switch (sk.kind) {
          case SinkKind::kStoreSram:
            ss.addr = row(sk.addr);
            if (sk.accumulate)
                ss.kernel = mapKernelFor(sk.accumOp);
            request(sk.addr, 0);
            request(sk.value, 0);
            break;
          case SinkKind::kFold: {
            ss.addr = row(sk.addr);
            ss.scale = row(sk.postScale);
            ss.offset = row(sk.postOffset);
            if (!sk.crossLane)
                ss.kernel = mapKernelFor(sk.foldOp);
            request(sk.value, 0);
            // At the fold's end: the address and post-op lanes (all
            // valid lanes for a per-lane SRAM fold, else lane 0).
            const bool sram = sk.dest == FoldDest::kSramAddr;
            if ((sram && sk.addr != kNone) || sk.postScale != kNone ||
                sk.postOffset != kNone) {
                Source end;
                end.kind = Source::Kind::kFoldEnd;
                end.level = ss.level;
                end.lane0 = sk.crossLane || !sram;
                uint32_t k = add_source(end);
                if (sram)
                    request(sk.addr, k);
                request(sk.postScale, k);
                request(sk.postOffset, k);
            }
            break;
          }
          case SinkKind::kFlatMapSram: {
            ss.pred = row(sk.pred);
            request(sk.pred, 0);
            Source p;
            p.kind = Source::Kind::kPred;
            p.pred = ss.pred;
            request(sk.value, add_source(p));
            break;
          }
          case SinkKind::kStreamOut:
            ss.addr = row(sk.dramAddr);
            request(sk.dramAddr, 0);
            request(sk.value, 0);
            break;
          case SinkKind::kScatterOut: {
            ss.addr = row(sk.dramAddr);
            ss.pred = row(sk.scatterPred);
            uint32_t k = 0;
            if (sk.scatterPred != kNone) {
                request(sk.scatterPred, 0);
                Source p;
                p.kind = Source::Kind::kPred;
                p.pred = ss.pred;
                k = add_source(p);
            }
            request(sk.dramAddr, k);
            request(sk.value, k);
            break;
          }
        }
    }
    if (lp.sources.size() > 64) {
        // More distinct masks (predicate rows, fold ends) than one
        // source word holds: stay on the lazy path.
        serial_[id] = true;
        return;
    }

    // ---- reachable expressions in dependency order -------------------
    if (++markGen_ == 0) {
        std::fill(mark_.begin(), mark_.end(), 0);
        markGen_ = 1;
    }
    auto operands = [&](const Expr &e, ExprId ops[3]) {
        int k = 0;
        switch (e.kind) {
          case ExprKind::kAlu:
            for (ExprId o : {e.a, e.b, e.c})
                if (o != kNone)
                    ops[k++] = o;
            break;
          case ExprKind::kLoadSram:
            ops[k++] = e.addr;
            break;
          case ExprKind::kStreamIn:
            if (e.stream >= 0 &&
                static_cast<size_t>(e.stream) < n.streamIns.size())
                ops[k++] = n.streamIns[e.stream].addr;
            break;
          default:
            break;
        }
        return k;
    };
    std::vector<ExprId> order; // operands before their users
    std::vector<std::pair<ExprId, int>> stack;
    for (const auto &[r, src] : roots) {
        (void)src;
        if (mark_[r] == markGen_)
            continue;
        mark_[r] = markGen_;
        srcBits_[r] = 0;
        stack.push_back({r, 0});
        while (!stack.empty()) {
            auto &[x, next] = stack.back();
            ExprId ops[3];
            int nops = operands(prog_.exprs[x], ops);
            if (next < nops) {
                ExprId o = ops[next++];
                if (mark_[o] != markGen_) {
                    mark_[o] = markGen_;
                    srcBits_[o] = 0;
                    stack.push_back({o, 0});
                }
                continue;
            }
            order.push_back(x);
            stack.pop_back();
        }
    }
    // Each expression needs the union of its users' masks.
    for (const auto &[r, src] : roots)
        srcBits_[r] |= uint64_t{1} << src;
    for (size_t i = order.size(); i-- > 0;) {
        const ExprId x = order[i];
        ExprId ops[3];
        int nops = operands(prog_.exprs[x], ops);
        for (int k = 0; k < nops; ++k)
            srcBits_[ops[k]] |= srcBits_[x];
    }

    // ---- steps: lane-invariant leaves become per-run fills ------------
    auto class_of = [&](uint64_t bits) {
        for (size_t c = 0; c < lp.classes.size(); ++c)
            if (lp.classes[c].sources == bits)
                return static_cast<uint16_t>(c);
        lp.classes.push_back({bits, (bits & 1u) != 0});
        return static_cast<uint16_t>(lp.classes.size() - 1);
    };
    std::vector<Step> later; // steps whose need excludes the valid mask
    for (ExprId x : order) {
        const Expr &e = prog_.exprs[x];
        Step st;
        st.out = row(x);
        bool invariant = false, checked = false;
        switch (e.kind) {
          case ExprKind::kConst:
          case ExprKind::kLaneId:
            invariant = true;
            break;
          case ExprKind::kArg:
            invariant = e.arg >= 0 &&
                        static_cast<size_t>(e.arg) < prog_.args.size();
            checked = !invariant;
            break;
          case ExprKind::kScalarIn:
            invariant = e.scalar >= 0 &&
                        static_cast<size_t>(e.scalar) < n.scalarIns.size();
            checked = !invariant;
            break;
          case ExprKind::kCtr: {
            int level = -1;
            for (size_t i = n.leafCtrs.size(); i-- > 0;)
                if (n.leafCtrs[i] == e.ctr)
                    level = static_cast<int>(i);
            if (level >= 0) {
                st.op = Step::Op::kLeafCtr;
                st.level = static_cast<uint8_t>(level);
            } else {
                invariant = e.ctr >= 0 &&
                            static_cast<size_t>(e.ctr) < ctrVal_.size();
                checked = !invariant;
            }
            break;
          }
          case ExprKind::kAlu:
            st.op = Step::Op::kAlu;
            st.alu = e.alu;
            st.kernel = kernel_[x];
            st.a = row(e.a);
            st.b = row(e.b);
            st.c = row(e.c);
            break;
          case ExprKind::kLoadSram:
            st.op = Step::Op::kLoad;
            st.mem = e.mem;
            st.a = row(e.addr);
            break;
          case ExprKind::kStreamIn:
            if (e.stream >= 0 &&
                static_cast<size_t>(e.stream) < n.streamIns.size()) {
                st.op = Step::Op::kStream;
                st.mem = n.streamIns[e.stream].dram;
                st.a = row(n.streamIns[e.stream].addr);
            } else {
                checked = true;
            }
            break;
        }
        if (invariant) {
            lp.fills.push_back({st.out, x});
            continue;
        }
        if (checked) {
            st.op = Step::Op::kChecked;
            st.expr = x;
        }
        st.cls = class_of(srcBits_[x]);
        if (lp.classes[st.cls].valid)
            lp.steps.push_back(st);
        else
            later.push_back(st);
    }
    lp.validSteps = lp.steps.size();
    lp.steps.insert(lp.steps.end(), later.begin(), later.end());
    lp.need.assign(lp.classes.size(), 0);
    lp.srcMask.assign(lp.sources.size(), 0);
}

void
Evaluator::execCompute(const Node &n)
{
    const NodeId my_id = static_cast<NodeId>(&n - prog_.nodes.data());
    LeafProgram &lp = leaves_[my_id];
    if (!lp.built)
        lower(my_id, lp);
    for (size_t i = 0; i < n.leafCtrs.size(); ++i)
        lp.bounds[i] = boundOf(prog_.ctrs[n.leafCtrs[i]]);
    lp.chain.reset(lp.bounds);

    for (size_t s = 0; s < n.sinks.size(); ++s) {
        const Sink &sk = n.sinks[s];
        lp.sinks[s].flatCount = 0;
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

    if (serial_[my_id])
        runSerial(n, lp);
    else
        runLowered(n, lp);

    // End-of-run FlatMap bookkeeping.
    for (size_t s = 0; s < n.sinks.size(); ++s) {
        const Sink &sk = n.sinks[s];
        if (sk.kind != SinkKind::kFlatMapSram)
            continue;
        Word count = static_cast<Word>(lp.sinks[s].flatCount);
        scalarSlot(my_id, s) = count;
        if (sk.countArgOut != kNone)
            argOuts_.at(sk.countArgOut).push_back(count);
    }
}

void
Evaluator::runLowered(const Node &n, LeafProgram &lp)
{
    if (lp.chain.done())
        return;
    Word *v = val_.data();
    const Word *zero = v + prog_.exprs.size() * lanes_;
    for (const auto &[r, id] : lp.fills) {
        const Expr &e = prog_.exprs[id];
        Word *out = v + r;
        if (e.kind == ExprKind::kLaneId) {
            for (uint32_t l = 0; l < lanes_; ++l)
                out[l] = l;
        } else {
            std::fill(out, out + lanes_, invariantValue(n, e));
        }
    }
    for (size_t s = 0; s < n.sinks.size(); ++s) {
        if (n.sinks[s].kind == SinkKind::kFold)
            lp.sinks[s].identity = fuOpIdentity(n.sinks[s].foldOp);
    }

    const NodeId my_id = static_cast<NodeId>(&n - prog_.nodes.data());
    Wavefront &wf = wf_;
    const uint32_t width = lanes_;
    uint32_t *src = lp.srcMask.data();
    uint32_t *need = lp.need.data();
    auto class_needs = [&](bool valid) {
        for (size_t c = 0; c < lp.classes.size(); ++c) {
            if (lp.classes[c].valid != valid)
                continue;
            uint32_t m = 0;
            for (uint64_t b = lp.classes[c].sources; b != 0; b &= b - 1)
                m |= src[__builtin_ctzll(b)];
            need[c] = m;
        }
    };
    auto run_steps = [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            const Step &st = lp.steps[i];
            const uint32_t mask = need[st.cls];
            if (mask == 0)
                continue;
            Word *out = v + st.out;
            const uint32_t lanes =
                static_cast<uint32_t>(__builtin_popcount(mask));
            switch (st.op) {
              case Step::Op::kAlu: {
                const Word *a = v + st.a, *b = v + st.b, *c = v + st.c;
                if (st.kernel && isPrefix(mask)) {
                    st.kernel(a, b, c, out, lanes);
                } else {
                    forLanes(mask, [&](uint32_t l) {
                        out[l] = fuExec(st.alu, a[l], b[l], c[l]);
                    });
                }
                counts_.aluOps += lanes;
                break;
              }
              case Step::Op::kLoad:
              case Step::Op::kStream: {
                const Word *addr = v + st.a;
                const std::vector<Word> &m = memData_[st.mem];
                if (isPrefix(mask)) {
                    for (uint32_t l = 0; l < lanes; ++l)
                        out[l] = m.at(addr[l]);
                } else {
                    forLanes(mask,
                             [&](uint32_t l) { out[l] = m.at(addr[l]); });
                }
                (st.op == Step::Op::kLoad ? counts_.sramWordsRead
                                          : counts_.dramWordsRead) += lanes;
                break;
              }
              case Step::Op::kLeafCtr: {
                // Lane l of the vectorized counter sees base + l * step
                // (truncated to a word, so word arithmetic is exact);
                // every lane of another counter sees base.
                const Word base = static_cast<Word>(wf.ctr[st.level]);
                const Word step =
                    static_cast<int8_t>(st.level) == wf.vecCtr
                        ? static_cast<Word>(wf.vecStep)
                        : 0;
                for (uint32_t l = 0; l < width; ++l)
                    out[l] = base + l * step;
                break;
              }
              case Step::Op::kChecked:
                // Its out-of-range lookup throws here, at first use.
                std::fill(out, out + width,
                          invariantValue(n, prog_.exprs[st.expr]));
                break;
            }
        }
    };
    // Lanes of `mask` where the row `pred` is nonzero.
    auto truthy = [&](uint32_t pred, uint32_t mask) {
        uint32_t keep = 0;
        forLanes(mask, [&](uint32_t l) {
            if (v[pred + l] != 0)
                keep |= 1u << l;
        });
        return keep;
    };

    do {
        lp.chain.issueInto(wf);
        ++counts_.wavefronts;
        const uint32_t valid = wf.mask;

        // Steps whose need includes the valid lanes first (predicate
        // masks are subsets of those and wait for their predicate).
        // The other steps run only under a predicate or at a fold end.
        bool later = false;
        for (size_t k = 0; k < lp.sources.size(); ++k) {
            const Source &so = lp.sources[k];
            switch (so.kind) {
              case Source::Kind::kValid:
                src[k] = valid;
                break;
              case Source::Kind::kPred:
                src[k] = 0;
                later = true;
                break;
              case Source::Kind::kFoldEnd:
                src[k] = !wf.lastAtLevel(so.level) ? 0
                         : so.lane0                ? 1u
                                                   : valid;
                later = later || src[k] != 0;
                break;
            }
        }
        class_needs(true);
        run_steps(0, lp.validSteps);
        if (later && lp.validSteps < lp.steps.size()) {
            for (size_t k = 0; k < lp.sources.size(); ++k) {
                if (lp.sources[k].kind == Source::Kind::kPred)
                    src[k] = truthy(lp.sources[k].pred, valid);
            }
            class_needs(false);
            run_steps(lp.validSteps, lp.steps.size());
        }

        for (size_t s = 0; s < n.sinks.size(); ++s) {
            const Sink &sk = n.sinks[s];
            SinkState &ss = lp.sinks[s];
            const Word *x = v + ss.value;
            switch (sk.kind) {
              case SinkKind::kStoreSram: {
                // FIFO-mode memories are queues: the sequential
                // evaluator keeps every element that streams through
                // (index = enqueue position), so the later consumer
                // observes the same order as the hardware pops.
                const bool fifo =
                    prog_.mems[sk.mem].mode == BankingMode::kFifo;
                const Word *addr = v + ss.addr;
                std::vector<Word> &m = memData_[sk.mem];
                if (ss.kernel && !fifo && isPrefix(valid)) {
                    // Accumulating over in-range, distinct addresses
                    // (strictly increasing, as affine ones are): read,
                    // combine and write the whole prefix. Otherwise the
                    // lane loop below, where a repeated address sees the
                    // earlier lane's write and an out-of-range one throws
                    // after the lanes before it are written.
                    const uint32_t lanes =
                        static_cast<uint32_t>(__builtin_popcount(valid));
                    bool plain = true;
                    for (uint32_t l = 0; l < lanes && plain; ++l)
                        plain = addr[l] < m.size() &&
                                (l == 0 || addr[l - 1] < addr[l]);
                    if (plain) {
                        std::array<Word, kMaxLanes> old;
                        for (uint32_t l = 0; l < lanes; ++l)
                            old[l] = m[addr[l]];
                        ss.kernel(old.data(), x, zero, old.data(), lanes);
                        for (uint32_t l = 0; l < lanes; ++l)
                            m[addr[l]] = old[l];
                        counts_.sramWordsWritten += lanes;
                        break;
                    }
                }
                forLanes(valid, [&](uint32_t l) {
                    Word a = addr[l];
                    Word w = x[l];
                    if (fifo && a >= m.size())
                        m.resize(a + 1, 0);
                    if (sk.accumulate)
                        w = fuExec(sk.accumOp, m.at(a), w, 0);
                    m.at(a) = w;
                    ++counts_.sramWordsWritten;
                });
                break;
              }
              case SinkKind::kFold: {
                const uint8_t lvl = ss.level;
                if (wf.firstAtLevel(lvl))
                    ss.acc.fill(ss.identity);
                if (sk.crossLane) {
                    // Pairwise tree with identity fill — same order as
                    // the PCU reduction network.
                    std::array<Word, kMaxLanes> t;
                    for (uint32_t l = 0; l < lanes_; ++l)
                        t[l] = (valid >> l) & 1u ? x[l] : ss.identity;
                    for (uint32_t dist = 1; dist < lanes_; dist *= 2) {
                        for (uint32_t i = 0; i + dist < lanes_;
                             i += 2 * dist)
                            t[i] = fuExec(sk.foldOp, t[i], t[i + dist], 0);
                    }
                    ss.acc[0] = fuExec(sk.foldOp, ss.acc[0], t[0], 0);
                } else if (ss.kernel && isPrefix(valid)) {
                    ss.kernel(ss.acc.data(), x, zero, ss.acc.data(),
                              static_cast<uint32_t>(
                                  __builtin_popcount(valid)));
                } else {
                    forLanes(valid, [&](uint32_t l) {
                        ss.acc[l] = fuExec(sk.foldOp, ss.acc[l], x[l], 0);
                    });
                }
                if (!wf.lastAtLevel(lvl))
                    break;
                auto post = [&](Word r, uint32_t lane) -> Word {
                    if (sk.postScale == kNone && sk.postOffset == kNone)
                        return r;
                    Word sc = sk.postScale != kNone ? v[ss.scale + lane]
                                                    : floatToWord(1.0f);
                    Word of = sk.postOffset != kNone ? v[ss.offset + lane]
                                                     : floatToWord(0.0f);
                    return fuExec(FuOp::kFMA, r, sc, of);
                };
                auto store = [&](Word a, Word w) {
                    std::vector<Word> &m = memData_[sk.mem];
                    if (sk.accumulate)
                        w = fuExec(sk.accumOp, m.at(a), w, 0);
                    m.at(a) = w;
                    ++counts_.sramWordsWritten;
                };
                if (sk.dest == FoldDest::kArgOut) {
                    argOuts_.at(sk.argOut).push_back(post(ss.acc[0], 0));
                } else if (sk.dest == FoldDest::kScalarStream) {
                    scalarSlot(my_id, s) = post(ss.acc[0], 0);
                } else if (sk.crossLane) {
                    store(v[ss.addr], post(ss.acc[0], 0));
                } else {
                    forLanes(valid, [&](uint32_t l) {
                        store(v[ss.addr + l], post(ss.acc[l], l));
                    });
                }
                break;
              }
              case SinkKind::kFlatMapSram: {
                const Word *pred = v + ss.pred;
                forLanes(valid, [&](uint32_t l) {
                    if (pred[l] == 0)
                        return;
                    memData_[sk.mem].at(fifoFill_[sk.mem]++) = x[l];
                    ++ss.flatCount;
                    ++counts_.sramWordsWritten;
                });
                break;
              }
              case SinkKind::kStreamOut:
              case SinkKind::kScatterOut: {
                const bool gated = sk.kind == SinkKind::kScatterOut &&
                                   sk.scatterPred != kNone;
                const Word *pred = v + ss.pred;
                const Word *addr = v + ss.addr;
                std::vector<Word> &m = memData_[sk.dram];
                forLanes(valid, [&](uint32_t l) {
                    if (gated && pred[l] == 0)
                        return;
                    m.at(addr[l]) = x[l];
                    ++counts_.dramWordsWritten;
                });
                break;
              }
            }
        }
    } while (!lp.chain.done());
}

void
Evaluator::runSerial(const Node &n, LeafProgram &lp)
{
    // Lane-serial: every value is computed on first use, one lane at a
    // time, in the sinks' lane order.
    NodeId my_id = static_cast<NodeId>(&n - prog_.nodes.data());
    for (size_t i = n.leafCtrs.size(); i-- > 0;)
        ctrLevel_[n.leafCtrs[i]] = static_cast<int8_t>(i);
    leaf_ = &n;
    Wavefront &wf = wf_;

    while (!lp.chain.done()) {
        lp.chain.issueInto(wf);
        ++counts_.wavefronts;
        ++epoch_;

        for (size_t s = 0; s < n.sinks.size(); ++s) {
            const Sink &sk = n.sinks[s];
            switch (sk.kind) {
              case SinkKind::kStoreSram: {
                bool fifo =
                    prog_.mems[sk.mem].mode == BankingMode::kFifo;
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
                SinkState &fs = lp.sinks[s];
                uint8_t lvl = fs.level;
                if (wf.firstAtLevel(lvl))
                    fs.acc.fill(fuOpIdentity(sk.foldOp));
                if (sk.crossLane) {
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
                        scalarSlot(my_id, s) = post(fs.acc[0], 0);
                    } else if (sk.crossLane) {
                        Word a = evalLane(sk.addr, 0);
                        std::vector<Word> &m = memData_[sk.mem];
                        Word v = post(fs.acc[0], 0);
                        if (sk.accumulate)
                            v = fuExec(sk.accumOp, m.at(a), v, 0);
                        m.at(a) = v;
                        ++counts_.sramWordsWritten;
                    } else {
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
                for (uint32_t l = 0; l < lanes_; ++l) {
                    if (!wf.valid(l))
                        continue;
                    if (evalLane(sk.pred, l) == 0)
                        continue;
                    Word v = evalLane(sk.value, l);
                    memData_[sk.mem].at(fifoFill_[sk.mem]++) = v;
                    ++lp.sinks[s].flatCount;
                    ++counts_.sramWordsWritten;
                }
                break;
              }
              case SinkKind::kStreamOut: {
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
}

} // namespace plast::pir
