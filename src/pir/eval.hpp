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
 * Expressions are evaluated lane-batched, like a PCU stage: within one
 * wavefront each expression is computed once over a lane mask
 * (evalVec) and cached. Every sink first requests exactly the lanes
 * the lane-at-a-time semantics reach — valid lanes, predicate-true
 * lanes for FlatMap and ScatterOut, post-op/address lanes at fold
 * ends — then performs its writes in lane order, so outputs,
 * instrumented counts and every bounds-checked access are identical
 * to evaluating one lane at a time. A leaf whose sinks write a memory
 * that its own expressions read, or that reads a scalar it produces
 * itself, is order-sensitive across lanes; it is evaluated with
 * single-lane masks in the original lane-serial order.
 *
 * The evaluator also counts ALU operations and DRAM word traffic;
 * these instrumented totals feed the FPGA baseline model (src/fpga).
 */

#ifndef PLAST_PIR_EVAL_HPP
#define PLAST_PIR_EVAL_HPP

#include <map>
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

    int64_t boundOf(const CtrDecl &c) const;
    void execNode(NodeId id);
    void execTransfer(const Node &n);
    void execCompute(const Node &n);
    /** True if `leaf` must run its lanes serially (see file comment). */
    bool laneOrderHazard(NodeId leaf) const;
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
    /** Latest scalar per (node,sink): fold-to-scalar / flatmap counts. */
    std::map<std::pair<NodeId, int32_t>, Word> lastScalar_;
    Counts counts_;

    // ---- per-program tables, built at construction ------------------
    /** Memories each outer node zeroes per iteration (MemDecl::clearAt). */
    std::vector<std::vector<MemId>> clearLists_;
    /** Per compute leaf: lane-serial evaluation required. */
    std::vector<bool> serial_;
    /** Per ALU expression: monomorphic lane kernel (null: fuExec). */
    std::vector<MapKernel> kernel_;

    // ---- evaluation state, reused across leaf runs ------------------
    /** Leaf-counter level of each counter in the running leaf; -1 for
     *  outer counters (read from ctrVal_). */
    std::vector<int8_t> ctrLevel_;
    const Node *leaf_ = nullptr; ///< node whose expressions are evaluated
    Wavefront wf_;
    uint64_t epoch_ = 0; ///< bumped per wavefront / transfer
    std::vector<Slot> slot_;
    std::vector<Word> val_; ///< exprs x lanes_ cached values
};

} // namespace plast::pir

#endif // PLAST_PIR_EVAL_HPP
