/**
 * @file
 * The address-predictor interface that directs a Predictor-Directed
 * Stream Buffer.
 *
 * The paper's key structural idea (§4): PSB splits prediction into
 *  - a *stateless* shared predictor (the tables), updated only in the
 *    write-back stage when a load misses the L1D, and
 *  - *per-stream history* stored inside each stream buffer, advanced
 *    speculatively each time the buffer makes a prediction.
 *
 * StreamState is that per-stream history. predictNext() reads the
 * tables and advances only the StreamState — never the tables — so
 * prediction n is generated from prediction n-1 while the architectural
 * tables stay consistent with the true miss stream.
 *
 * Any address predictor implementing this interface can direct the
 * stream buffers (paper §7); SfmPredictor is the one the paper
 * evaluates, and examples/custom_predictor.cc shows a user-defined one.
 */

#ifndef PSB_PREDICTORS_ADDRESS_PREDICTOR_HH
#define PSB_PREDICTORS_ADDRESS_PREDICTOR_HH

#include <cstdint>
#include <optional>
#include <string>

#include "trace/micro_op.hh"

namespace psb
{

class StatsRegistry;

/**
 * Which prediction mechanism produced an address. Every predictNext()
 * implementation stamps StreamState::lastSource with one of these so
 * the prefetch attribution layer (prefetch/attribution.hh) can break
 * accuracy and timeliness down per predictor source.
 */
enum class PredictionSource : uint8_t
{
    None,        ///< no prediction made yet / untagged
    Stride,      ///< stride table (SFM stride half, Farkas PC-stride)
    Markov,      ///< differential Markov table (SFM or demand Markov)
    Context,     ///< order-k context predictor
    Sequential,  ///< next-block sequential predictor
    LastAddress, ///< no producer left; keeps its stats rows
    MinDelta,    ///< Palacharla-Kessler minimum-delta detector
    NextLine,    ///< tagged next-line prefetcher (no stream state)
    NumSources,
};

/** Canonical lower-case name of @p source (stats / trace vocabulary). */
const char *predictionSourceName(PredictionSource source);

/**
 * Per-stream prediction history, stored with each stream buffer
 * (paper Figure 2: Load PC, History, Stride, Confidence, Last Address).
 */
struct StreamState
{
    Addr loadPc{};        ///< PC of the load that allocated the stream
    BlockAddr lastAddr{}; ///< last (speculative) block predicted
    BlockDelta stride{};  ///< stride assigned at allocation (blocks)
    uint32_t confidence = 0; ///< accuracy confidence copied at allocation
    /**
     * Figure 2's "History" field: opaque, predictor-defined state for
     * predictors that need more than the last address (the order-k
     * ContextPredictor keys its shadow history with it; the
     * minimum-delta predictor keeps its byte-precision stride here).
     * The SFM predictor leaves it unused.
     */
    uint64_t historyToken = 0;
    /** Mechanism behind the most recent predictNext() on this stream. */
    PredictionSource lastSource = PredictionSource::None;
};

/** Answer of AddressPredictor::fixedPoint(). */
struct PredictFixedPoint
{
    /**
     * predictNext() is known to change nothing: not the StreamState,
     * not the tables, not a counter. False means "unknown", which is
     * always a correct answer.
     */
    bool stalled = false;
    /** What that predictNext() returns (meaningful when stalled). */
    std::optional<BlockAddr> next;
};

/** Shared, stateless-at-prediction-time address predictor. */
class AddressPredictor
{
  public:
    virtual ~AddressPredictor() = default;

    /**
     * Train the tables on a write-back-stage L1D load miss. The caller
     * filters out loads that received their value from a store forward
     * (paper §4.2: those are not stored in the prediction table).
     *
     * @param pc The load's PC.
     * @param addr The load's effective (miss) address.
     */
    virtual void train(Addr pc, Addr addr) = 0;

    /**
     * Generate the next prefetch address for a stream and advance the
     * stream's speculative history. The tables are not modified.
     *
     * @return The predicted block, or nullopt when the predictor has
     *         no prediction for this state.
     */
    virtual std::optional<BlockAddr>
    predictNext(StreamState &state) const = 0;

    /**
     * Preview predictNext(@p state) without calling it: is the stream
     * at a fixed point, where the call would change nothing, and what
     * would it return? The stream-buffer fast-forward uses this to
     * replay a predictor port that a stalled stream keeps winning
     * (a stride-0 or self-looping stream re-predicting one block).
     *
     * The query must be const in fact, not just in signature: it may
     * touch no mutable member, no counter and no trace sink. Answer
     * stalled = true only when a predictNext() with tracing off would
     * leave the state and every other observable unchanged and return
     * exactly `next`. The default answers "unknown"; a predictor that
     * keeps mutable shadow history (ContextPredictor) must keep it.
     */
    virtual PredictFixedPoint
    fixedPoint(const StreamState &state) const
    {
        (void)state;
        return {};
    }

    /**
     * Build the initial per-stream state for a stream buffer allocated
     * by a miss of load @p pc at @p addr (copies prediction info from
     * predictor to buffer; the predictor itself is not modified).
     */
    virtual StreamState allocateStream(Addr pc, Addr addr) const = 0;

    /**
     * Current accuracy-confidence counter for @p pc (saturates at 7 in
     * the paper's configuration; 0 when the load is not tracked).
     */
    virtual uint32_t confidence(Addr pc) const = 0;

    /**
     * PSB's generalised two-miss filter test (paper §4.3): true when
     * load @p pc missed twice in a row and both misses would have been
     * predicted correctly by the stride or Markov predictor. The miss
     * address is provided for address-indexed schemes (e.g.\ the
     * Palacharla-Kessler minimum-delta detector).
     */
    virtual bool twoMissFilterPass(Addr pc, Addr addr) const = 0;

    /**
     * Register predictor-internal stats under @p prefix. Default: the
     * predictor keeps no exported counters.
     */
    virtual void
    registerStats(StatsRegistry &reg, const std::string &prefix) const
    {
        (void)reg;
        (void)prefix;
    }

    /** Zero exported counters (end-of-warm-up); tables are kept. */
    virtual void resetStats() {}
};

} // namespace psb

#endif // PSB_PREDICTORS_ADDRESS_PREDICTOR_HH
