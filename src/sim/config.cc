#include "sim/config.hh"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

#include "predictors/context_predictor.hh"
#include "util/bitfield.hh"

namespace psb
{

namespace
{

bool
badValue(const std::string &key, const std::string &value,
         const char *expected, std::string &error)
{
    error = "bad value '" + value + "' for config key '" + key +
            "' (expected " + expected + ")";
    return false;
}

/** The accepted spellings of an enum-valued key, in help order. */
template <typename E>
using Spellings = std::vector<std::pair<const char *, E>>;

/** Set @p out to the value @p value spells, or fail listing them all. */
template <typename E>
bool
parseSpelling(const std::string &key, const std::string &value,
              const Spellings<E> &spellings, E &out, std::string &error)
{
    std::string expected;
    for (const auto &[name, e] : spellings) {
        if (value == name) {
            out = e;
            return true;
        }
        if (!expected.empty())
            expected += '|';
        expected += name;
    }
    return badValue(key, value, expected.c_str(), error);
}

} // namespace

bool
parseUInt(const std::string &value, uint64_t &out)
{
    // Digits only: strtoull would silently wrap "-5" to a huge value.
    if (value.empty() || value[0] < '0' || value[0] > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(value.c_str(), &end, 10);
    // ERANGE: past 2^64 - 1, where strtoull saturates.
    return errno == 0 && end == value.c_str() + value.size();
}

const std::vector<std::string> &
simConfigKeys()
{
    static const std::vector<std::string> keys = {
        "aging",       "alloc",          "buffers",    "conf-threshold",
        "config",      "delta-bits",     "disambig",   "entries",
        "fastforward", "insts",          "l1d-assoc",  "l1d-kb",
        "markov-entries", "order",       "prefetcher", "sched",
        "sfm-mode",    "tlb-cache",      "warmup",
    };
    return keys;
}

bool
isConfigKey(const std::string &key)
{
    const std::vector<std::string> &keys = simConfigKeys();
    return std::binary_search(keys.begin(), keys.end(), key);
}

bool
applyConfigKey(SimConfig &cfg, const std::string &key,
               const std::string &value, std::string &error)
{
    if (key == "config") {
        Spellings<PaperConfig> machines;
        for (PaperConfig pc : paperConfigs)
            machines.emplace_back(paperConfigName(pc), pc);
        PaperConfig pc{};
        if (!parseSpelling(key, value, machines, pc, error))
            return false;
        SimConfig paper = makePaperConfig(pc);
        cfg.prefetcher = paper.prefetcher;
        cfg.psb.alloc = paper.psb.alloc;
        cfg.psb.sched = paper.psb.sched;
        return true;
    }
    if (key == "prefetcher") {
        return parseSpelling<PrefetcherKind>(
            key, value,
            {{"none", PrefetcherKind::None},
             {"pcstride", PrefetcherKind::PcStride},
             {"psb", PrefetcherKind::Psb},
             {"sequential", PrefetcherKind::Sequential},
             {"nextline", PrefetcherKind::NextLine},
             {"markov", PrefetcherKind::MarkovDemand},
             {"mindelta", PrefetcherKind::MinDelta}},
            cfg.prefetcher, error);
    }
    if (key == "alloc") {
        return parseSpelling<AllocPolicy>(
            key, value,
            {{"2miss", AllocPolicy::TwoMiss},
             {"conf", AllocPolicy::Confidence},
             {"always", AllocPolicy::Always}},
            cfg.psb.alloc, error);
    }
    if (key == "sched") {
        return parseSpelling<SchedPolicy>(
            key, value,
            {{"rr", SchedPolicy::RoundRobin},
             {"priority", SchedPolicy::Priority}},
            cfg.psb.sched, error);
    }
    if (key == "sfm-mode") {
        return parseSpelling<SfmMode>(
            key, value,
            {{"sfm", SfmMode::Sfm},
             {"stride-only", SfmMode::StrideOnly},
             {"markov-only", SfmMode::MarkovOnly}},
            cfg.sfm.mode, error);
    }
    if (key == "disambig") {
        return parseSpelling<DisambiguationMode>(
            key, value,
            {{"perfect", DisambiguationMode::Perfect},
             {"none", DisambiguationMode::None},
             {"learned", DisambiguationMode::Learned}},
            cfg.core.disambiguation, error);
    }
    if (key == "tlb-cache" || key == "fastforward") {
        return parseSpelling<bool>(
            key, value, {{"true", true}, {"false", false}},
            key == "tlb-cache" ? cfg.psb.buffers.cacheTlbTranslation
                               : cfg.fastForward,
            error);
    }
    // Every remaining key takes a non-negative integer.
    uint64_t n = 0;
    if (!parseUInt(value, n)) {
        if (!isConfigKey(key)) {
            error = "unknown config key '" + key + "'";
            return false;
        }
        return badValue(key, value, "a non-negative integer", error);
    }
    if (key == "insts") {
        cfg.maxInstructions = n;
        return true;
    }
    if (key == "warmup") {
        cfg.warmupInstructions = n;
        return true;
    }
    // The rest land in 32-bit fields; a wider value must not wrap.
    if (n > UINT32_MAX && isConfigKey(key))
        return badValue(key, value, "an integer below 2^32", error);
    if (key == "l1d-kb") {
        cfg.memory.l1d.sizeBytes = n * 1024;
    } else if (key == "l1d-assoc") {
        cfg.memory.l1d.assoc = unsigned(n);
    } else if (key == "buffers") {
        cfg.psb.buffers.numBuffers = unsigned(n);
    } else if (key == "entries") {
        cfg.psb.buffers.entriesPerBuffer = unsigned(n);
    } else if (key == "markov-entries") {
        cfg.sfm.markov.entries = unsigned(n);
    } else if (key == "delta-bits") {
        cfg.sfm.markov.deltaBits = unsigned(n);
    } else if (key == "order") {
        cfg.psbContextOrder = unsigned(n);
    } else if (key == "aging") {
        cfg.psb.buffers.agingPeriod = unsigned(n);
    } else if (key == "conf-threshold") {
        cfg.psb.buffers.allocConfThreshold = uint32_t(n);
    } else {
        error = "unknown config key '" + key + "'";
        return false;
    }
    return true;
}

bool
applyConfigKeys(SimConfig &cfg,
                const std::vector<std::pair<std::string, std::string>>
                    &settings,
                std::string &error)
{
    bool paper = false, piece = false;
    for (const auto &[key, value] : settings) {
        paper = paper || key == "config";
        piece = piece || key == "prefetcher" || key == "alloc" ||
                key == "sched";
    }
    if (paper && piece) {
        error = "config key 'config' names a paper machine and cannot "
                "be combined with 'prefetcher', 'alloc' or 'sched'";
        return false;
    }
    for (const auto &[key, value] : settings) {
        if (!applyConfigKey(cfg, key, value, error))
            return false;
    }
    cfg.harmonize();
    return cfg.validate(error);
}

const char *
prefetcherKindName(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::None:         return "None";
      case PrefetcherKind::PcStride:     return "PCStride";
      case PrefetcherKind::Psb:          return "PSB";
      case PrefetcherKind::Sequential:   return "Sequential";
      case PrefetcherKind::NextLine:     return "NextLine";
      case PrefetcherKind::MarkovDemand: return "MarkovDemand";
      case PrefetcherKind::MinDelta:     return "MinDelta";
    }
    return "Unknown";
}

void
SimConfig::harmonize()
{
    unsigned block = memory.l1d.blockBytes;
    psb.buffers.blockBytes = block;
    sfm.stride.blockBytes = block;
    sfm.markov.blockBytes = block;
    stride.blockBytes = block;
}

bool
SimConfig::validate(std::string &error) const
{
    auto reject = [&error](const std::string &msg) {
        error = "invalid configuration: " + msg;
        return false;
    };
    const CacheGeometry &l1d = memory.l1d;
    if (l1d.assoc == 0)
        return reject("l1d-assoc must be at least 1");
    if (l1d.sizeBytes == 0 || l1d.sizeBytes % (uint64_t(l1d.assoc) *
                                               l1d.blockBytes) != 0 ||
        !isPowerOf2(l1d.numSets()))
        return reject("l1d-kb / l1d-assoc must give a power-of-two "
                      "number of " +
                      std::to_string(l1d.blockBytes) + "-byte-line sets");
    if (psb.buffers.numBuffers == 0 || psb.buffers.numBuffers > 64)
        return reject("buffers must be 1..64");
    if (psb.buffers.entriesPerBuffer == 0 ||
        psb.buffers.entriesPerBuffer > 64)
        return reject("entries must be 1..64");
    if (psb.buffers.agingPeriod == 0)
        return reject("aging must be at least 1");
    if (!isPowerOf2(sfm.markov.entries))
        return reject("markov-entries must be a power of two");
    if (sfm.markov.deltaBits < 2 || sfm.markov.deltaBits > 63)
        return reject("delta-bits must be 2..63");
    if (psbContextOrder > ContextPredictor::maxHistory)
        return reject("order must be 0.." +
                      std::to_string(ContextPredictor::maxHistory));
    return true;
}

std::string
SimConfig::label() const
{
    switch (prefetcher) {
      case PrefetcherKind::None:
        return "Base";
      case PrefetcherKind::PcStride:
        return "PCStride";
      case PrefetcherKind::Psb:
        return std::string(allocPolicyName(psb.alloc)) + "-" +
               schedPolicyName(psb.sched);
      default:
        return prefetcherKindName(prefetcher);
    }
}

const char *
paperConfigName(PaperConfig cfg)
{
    switch (cfg) {
      case PaperConfig::Base:              return "Base";
      case PaperConfig::PcStride:          return "PCStride";
      case PaperConfig::TwoMissRR:         return "2Miss-RR";
      case PaperConfig::TwoMissPriority:   return "2Miss-Priority";
      case PaperConfig::ConfAllocRR:       return "ConfAlloc-RR";
      case PaperConfig::ConfAllocPriority: return "ConfAlloc-Priority";
    }
    return "Unknown";
}

SimConfig
makePaperConfig(PaperConfig cfg)
{
    SimConfig sim;
    switch (cfg) {
      case PaperConfig::Base:
        sim.prefetcher = PrefetcherKind::None;
        break;
      case PaperConfig::PcStride:
        sim.prefetcher = PrefetcherKind::PcStride;
        break;
      case PaperConfig::TwoMissRR:
        sim.prefetcher = PrefetcherKind::Psb;
        sim.psb.alloc = AllocPolicy::TwoMiss;
        sim.psb.sched = SchedPolicy::RoundRobin;
        break;
      case PaperConfig::TwoMissPriority:
        sim.prefetcher = PrefetcherKind::Psb;
        sim.psb.alloc = AllocPolicy::TwoMiss;
        sim.psb.sched = SchedPolicy::Priority;
        break;
      case PaperConfig::ConfAllocRR:
        sim.prefetcher = PrefetcherKind::Psb;
        sim.psb.alloc = AllocPolicy::Confidence;
        sim.psb.sched = SchedPolicy::RoundRobin;
        break;
      case PaperConfig::ConfAllocPriority:
        sim.prefetcher = PrefetcherKind::Psb;
        sim.psb.alloc = AllocPolicy::Confidence;
        sim.psb.sched = SchedPolicy::Priority;
        break;
    }
    sim.harmonize();
    return sim;
}

} // namespace psb
