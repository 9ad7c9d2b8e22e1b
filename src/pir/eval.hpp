/**
 * @file
 * Reference evaluator for PIR programs: the golden functional model.
 *
 * The evaluator executes the controller tree sequentially but is
 * *wavefront-faithful*: vectorized counters iterate in blocks of
 * `lanes`, cross-lane folds use the same pairwise reduction-tree order
 * (with identity fill for masked lanes) as the PCU hardware, and
 * accumulators advance in wavefront order. Floating-point results
 * therefore match the cycle simulator bit for bit, which lets the
 * end-to-end tests require exact equality.
 *
 * Expressions are evaluated lane-batched, like a PCU stage. Within one
 * run(), each compute leaf is lowered on its first run into a leaf
 * program: the distinct expressions its sinks reach, in dependency
 * order, each pre-resolved to a step over one row of lane values. A
 * step runs once per wavefront over the lane mask its consumers need —
 * valid lanes, predicate-true lanes for FlatMap and ScatterOut,
 * post-op/address lanes at fold ends — so outputs, instrumented counts
 * and every bounds-checked access are identical to evaluating one lane
 * at a time (memory and counts left behind by a throw are not).
 * Lane-invariant leaves (constants, args, outer counters, scalar
 * inputs) are filled once per leaf run. A leaf whose sinks write a
 * memory that its own expressions read, or that reads a scalar it
 * produces itself, is order-sensitive across lanes; it is evaluated
 * lazily (evalVec) with single-lane masks in the original lane-serial
 * order.
 *
 * The evaluator also counts ALU operations and DRAM word traffic;
 * these instrumented totals feed the FPGA baseline model (src/fpga).
 */

#ifndef PLAST_PIR_EVAL_HPP
#define PLAST_PIR_EVAL_HPP

#include <array>
#include <vector>

#include "pir/ir.hpp"
#include "sim/execplan.hpp"
#include "sim/wavefront.hpp"

namespace plast::pir
{

class Evaluator
{
  public:
    explicit Evaluator(const Program &prog, uint32_t lanes = 16);

    /** Host access to DRAM buffer contents (sized at construction). */
    std::vector<Word> &dramBuf(MemId id);
    const std::vector<Word> &dramBuf(MemId id) const;

    /** SRAM contents after the run (inspection in tests). */
    const std::vector<Word> &sramBuf(MemId id) const;

    void run();

    /** Ordered values emitted to host argOut slot. */
    const std::vector<Word> &argOuts(int32_t slot) const;

    struct Counts
    {
        uint64_t aluOps = 0;       ///< FU-lane operations
        uint64_t dramWordsRead = 0;
        uint64_t dramWordsWritten = 0;
        uint64_t sramWordsRead = 0;
        uint64_t sramWordsWritten = 0;
        uint64_t wavefronts = 0;
    };
    const Counts &counts() const { return counts_; }

  private:
    /** Lanes of one expression computed in the current epoch. */
    struct Slot
    {
        uint64_t epoch = 0;
        uint32_t done = 0;
    };

    /** One expression of a leaf program, evaluated per wavefront. */
    struct Step
    {
        enum class Op : uint8_t
        {
            kAlu,     ///< kernel / fuExec over rows a, b, c
            kLoad,    ///< memData_[mem].at(row a); counts sram reads
            kStream,  ///< memData_[mem].at(row a); counts dram reads
            kLeafCtr, ///< wavefront value of leaf counter `level`
            kChecked, ///< lane-invariant leaf with an out-of-range index:
                      ///< its checked lookup throws when first needed
        };
        Op op = Op::kAlu;
        FuOp alu = FuOp::kNop;
        uint8_t level = 0;
        uint16_t cls = 0;  ///< index of its need mask (LeafProgram::classes)
        MapKernel kernel = nullptr;
        uint32_t out = 0;  ///< value-row offsets into val_
        uint32_t a = 0, b = 0, c = 0;
        MemId mem = kNone;
        ExprId expr = kNone; ///< kChecked
    };

    /** A set of lane-mask sources (bit k: LeafProgram::sources[k]). The
     *  steps reached from the same sources share one need mask. */
    struct NeedClass
    {
        uint64_t sources = 0;
        bool valid = false; ///< includes the every-wavefront valid mask
    };

    /** A lane mask some sink requests. Source 0 is the valid lanes of
     *  every wavefront; the others are one sink's predicate-true lanes
     *  or its fold-end lanes. */
    struct Source
    {
        enum class Kind : uint8_t { kValid, kPred, kFoldEnd };
        Kind kind = Kind::kValid;
        uint8_t level = 0;     ///< kFoldEnd: fold level
        bool lane0 = false;    ///< kFoldEnd: lane 0 only (else valid)
        uint32_t pred = 0;     ///< kPred: predicate row
    };

    /** Per-sink lowering and run state of a leaf. */
    struct SinkState
    {
        uint8_t level = 0;     ///< kFold: fold level index
        Word identity = 0;     ///< kFold: set per run, on first issue
        MapKernel kernel = nullptr; ///< fold / accumulate op kernel
        uint32_t value = 0, addr = 0, pred = 0; ///< value rows
        uint32_t scale = 0, offset = 0;
        uint64_t flatCount = 0;
        std::array<Word, kMaxLanes> acc{};
    };

    /** Lowered form of one compute leaf, built on its first run. */
    struct LeafProgram
    {
        bool built = false;
        ChainState chain;
        std::vector<int64_t> bounds;
        std::vector<SinkState> sinks;
        // ---- leaf programs only (not lane-order-sensitive leaves) ----
        /** Rows filled once per run: (row, expression). */
        std::vector<std::pair<uint32_t, ExprId>> fills;
        std::vector<Step> steps; ///< valid-class steps first
        size_t validSteps = 0;   ///< steps[0, validSteps): need ⊇ valid
        std::vector<Source> sources;
        std::vector<NeedClass> classes;
        std::vector<uint32_t> need; ///< per class, this wavefront
        std::vector<uint32_t> srcMask; ///< per source, this wavefront
    };

    int64_t boundOf(const CtrDecl &c) const;
    /** Latest scalar produced by (node, sink); 0 before the first. */
    Word scalarOf(NodeId node, int32_t sink) const;
    Word &scalarSlot(NodeId node, size_t sink)
    {
        return scalars_[scalarBase_[node] + sink];
    }
    void execNode(NodeId id);
    void execTransfer(const Node &n);
    void execCompute(const Node &n);
    /** True if `leaf` must run its lanes serially (see file comment). */
    bool laneOrderHazard(NodeId leaf) const;
    /** Build `lp` for compute leaf `id`. */
    void lower(NodeId id, LeafProgram &lp);
    /** Run one leaf run's wavefronts: lowered, or lane-serial. */
    void runLowered(const Node &n, LeafProgram &lp);
    void runSerial(const Node &n, LeafProgram &lp);
    /** Value of a lane-invariant expression of `leaf` (checked). */
    Word invariantValue(const Node &leaf, const Expr &e) const;
    /** Compute expression `id` in the lanes of `need` not yet done in
     *  this epoch (one wavefront of the current leaf). */
    void evalVec(ExprId id, uint32_t need);
    Word *
    vals(ExprId id)
    {
        return &val_[static_cast<size_t>(id) * lanes_];
    }
    Word
    evalLane(ExprId id, uint32_t lane)
    {
        const Slot &s = slot_[id];
        if (s.epoch != epoch_ || !((s.done >> lane) & 1u))
            evalVec(id, 1u << lane);
        return vals(id)[lane];
    }

    const Program &prog_;
    uint32_t lanes_;
    std::vector<std::vector<Word>> memData_; ///< per MemId storage
    std::vector<uint64_t> fifoFill_;         ///< FIFO-mode append cursor
    std::vector<int64_t> ctrVal_;            ///< outer counter values
    std::vector<std::vector<Word>> argOuts_;
    /** Latest scalar per (node, sink) — fold-to-scalar results and
     *  FlatMap counts — at scalarBase_[node] + sink. */
    std::vector<Word> scalars_;
    std::vector<size_t> scalarBase_;
    Counts counts_;

    // ---- per-program tables, built at construction ------------------
    /** Memories each outer node zeroes per iteration (MemDecl::clearAt). */
    std::vector<std::vector<MemId>> clearLists_;
    /** Per compute leaf: lane-serial evaluation required. */
    std::vector<bool> serial_;
    /** Per ALU expression: monomorphic lane kernel (null: fuExec). */
    std::vector<MapKernel> kernel_;

    // ---- evaluation state, reused across leaf runs ------------------
    /** Leaf-counter level of each counter in the running serial leaf;
     *  -1 for outer counters (read from ctrVal_). */
    std::vector<int8_t> ctrLevel_;
    const Node *leaf_ = nullptr; ///< node whose expressions are evaluated
    Wavefront wf_;
    uint64_t epoch_ = 0; ///< bumped per serial wavefront / transfer

    // ---- held only while run() runs, freed when it returns -----------
    /** Per compute leaf, built lazily on the leaf's first run. */
    std::vector<LeafProgram> leaves_;
    std::vector<Slot> slot_;
    /** (exprs + 1) x lanes_ values; the last row stays zero (absent
     *  ALU operands). */
    std::vector<Word> val_;
    /** Lowering scratch, per expression: source bits and visit mark. */
    std::vector<uint64_t> srcBits_;
    std::vector<uint32_t> mark_;
    uint32_t markGen_ = 0;
};

} // namespace plast::pir

#endif // PLAST_PIR_EVAL_HPP
