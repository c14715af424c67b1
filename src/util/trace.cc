#include "util/trace.hh"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "util/json.hh"
#include "util/logging.hh"

namespace psb
{

std::atomic<uint32_t> g_traceMask{0};

namespace
{

/** Canonical flag names, indexed by TraceFlag value. */
const char *const kFlagNames[kNumTraceFlags] = {
    "psb",  "sched", "sfm", "markov",   "bus",
    "cache", "mshr", "cpu", "prefetch",
};

/** Key identifying one open span for the balance bookkeeping. */
std::string
spanKey(TraceFlag flag, const char *name, int track)
{
    return std::string(kFlagNames[unsigned(flag)]) + "|" + name + "|" +
           std::to_string(track);
}

} // namespace

TraceManager &
TraceManager::get()
{
    static TraceManager instance;
    return instance;
}

const char *
TraceManager::flagName(TraceFlag flag)
{
    return kFlagNames[unsigned(flag)];
}

std::string
TraceManager::validFlagList()
{
    std::string out;
    for (unsigned i = 0; i < kNumTraceFlags; ++i) {
        if (i)
            out += ",";
        out += kFlagNames[i];
    }
    return out;
}

std::optional<uint32_t>
TraceManager::parseFlags(const std::string &csv, std::string &bad_token)
{
    uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        std::string token = csv.substr(pos, comma - pos);
        pos = comma + 1;
        if (token.empty())
            continue;
        if (token == "all") {
            mask |= (uint32_t(1) << kNumTraceFlags) - 1;
            continue;
        }
        bool found = false;
        for (unsigned i = 0; i < kNumTraceFlags; ++i) {
            if (token == kFlagNames[i]) {
                mask |= uint32_t(1) << i;
                found = true;
                break;
            }
        }
        if (!found) {
            bad_token = token;
            return std::nullopt;
        }
    }
    return mask;
}

std::optional<TraceManager::Format>
TraceManager::parseFormat(const std::string &name)
{
    if (name == "text")
        return Format::Text;
    if (name == "jsonl")
        return Format::Jsonl;
    if (name == "chrome")
        return Format::Chrome;
    return std::nullopt;
}

void
TraceManager::configure(uint32_t mask, Format format, std::ostream &out,
                        Cycle window_start, Cycle window_end)
{
    MutexLock lock(_mu);
    finishLocked();
    _owned.reset();
    _out = &out;
    _format = format;
    _windowStart = window_start;
    _windowEnd = window_end;
    _now = Cycle{};
    _lastEmitted = Cycle{};
    _events = 0;
    _chromeFirst = true;
    _openSpans.clear();
    _active = true;
    g_traceMask.store(mask & ((uint32_t(1) << kNumTraceFlags) - 1),
                      std::memory_order_relaxed);
    if (_format == Format::Chrome)
        writeChromePreamble();
}

bool
TraceManager::configureFile(uint32_t mask, Format format,
                            const std::string &path, Cycle window_start,
                            Cycle window_end)
{
    if (path == "-") {
        configure(mask, format, std::cout, window_start, window_end);
        return true;
    }
    auto file = std::make_unique<std::ofstream>(
        path, std::ios::binary | std::ios::trunc);
    if (!*file)
        return false;
    configure(mask, format, *file, window_start, window_end);
    MutexLock lock(_mu);
    _owned = std::move(file);
    return true;
}

void
TraceManager::writeChromePreamble()
{
    // One Chrome "process" per flag, named up front so the viewer
    // shows component names instead of bare pids. Deterministic:
    // every flag in enum order, enabled or not.
    *_out << "[\n";
    for (unsigned i = 0; i < kNumTraceFlags; ++i) {
        *_out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
              << (i + 1)
              << ",\"tid\":0,\"args\":{\"name\":\"" << kFlagNames[i]
              << "\"}}";
        *_out << ",\n";
    }
    // The comma chain continues from the metadata block.
    _chromeFirst = false;
    *_out << "{\"name\":\"trace_begin\",\"cat\":\"meta\",\"ph\":\"i\","
             "\"ts\":0,\"pid\":0,\"tid\":0,\"s\":\"g\"}";
}

void
TraceManager::writeEvent(TraceFlag flag, char phase, Cycle cycle,
                         const char *name, int track, const char *detail)
{
    const char *fname = kFlagNames[unsigned(flag)];
    switch (_format) {
      case Format::Text:
        *_out << "[" << cycle.raw() << "] " << fname;
        if (track >= 0)
            *_out << "." << track;
        if (phase != 'I')
            *_out << " " << phase;
        *_out << " " << name;
        if (detail[0])
            *_out << " " << detail;
        *_out << "\n";
        break;
      case Format::Jsonl:
        *_out << "{\"cycle\":" << cycle.raw() << ",\"flag\":\"" << fname
              << "\",\"kind\":\"" << phase << "\",\"name\":\""
              << escapeJson(name) << "\",\"track\":" << track
              << ",\"args\":\"" << escapeJson(detail) << "\"}\n";
        break;
      case Format::Chrome: {
        if (!_chromeFirst)
            *_out << ",\n";
        _chromeFirst = false;
        const char *ph = phase == 'B' ? "B" : phase == 'E' ? "E" : "i";
        *_out << "{\"name\":\"" << escapeJson(name) << "\",\"cat\":\""
              << fname << "\",\"ph\":\"" << ph
              << "\",\"ts\":" << cycle.raw()
              << ",\"pid\":" << (unsigned(flag) + 1)
              << ",\"tid\":" << (track + 1);
        if (phase == 'I')
            *_out << ",\"s\":\"t\"";
        if (phase != 'E' && detail[0])
            *_out << ",\"args\":{\"detail\":\"" << escapeJson(detail)
                  << "\"}";
        *_out << "}";
        break;
      }
    }
    ++_events;
    _lastEmitted = cycle;
}

void
TraceManager::emit(TraceFlag flag, char phase, const char *name,
                   int track, const char *fmt, va_list args)
{
    // PSB_REQUIRES(_mu): the public entry points below hold the lock.
    if (!_active || !_out)
        return;
    if (_now < _windowStart || _now >= _windowEnd)
        return;

    char detail[512];
    detail[0] = '\0';
    if (fmt && fmt[0]) {
        std::vsnprintf(detail, sizeof(detail), fmt, args);
        detail[sizeof(detail) - 1] = '\0';
    }

    if (phase == 'B')
        ++_openSpans[spanKey(flag, name, track)];
    writeEvent(flag, phase, _now, name, track, detail);
}

void
TraceManager::instant(TraceFlag flag, const char *name, int track,
                      const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    {
        MutexLock lock(_mu);
        emit(flag, 'I', name, track, fmt, args);
    }
    va_end(args);
}

void
TraceManager::begin(TraceFlag flag, const char *name, int track,
                    const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    {
        MutexLock lock(_mu);
        emit(flag, 'B', name, track, fmt, args);
    }
    va_end(args);
}

void
TraceManager::end(TraceFlag flag, const char *name, int track)
{
    MutexLock lock(_mu);
    if (!_active || !_out)
        return;
    // An end whose begin was never emitted (span opened before the
    // trace window, or after it closed) is dropped so begins and ends
    // stay balanced in the output.
    auto it = _openSpans.find(spanKey(flag, name, track));
    if (it == _openSpans.end() || it->second == 0)
        return;
    if (--it->second == 0)
        _openSpans.erase(it);
    Cycle cycle = _now;
    if (cycle >= _windowEnd)
        cycle = _lastEmitted;
    writeEvent(flag, 'E', cycle, name, track, "");
}

void
TraceManager::finish()
{
    MutexLock lock(_mu);
    finishLocked();
}

void
TraceManager::finishLocked()
{
    if (!_active) {
        g_traceMask.store(0, std::memory_order_relaxed);
        return;
    }
    // Close spans still open (streams live at the end of the run) so
    // every begin has a matching end. Map order is deterministic.
    for (const auto &[key, depth] : _openSpans) {
        std::size_t bar1 = key.find('|');
        std::size_t bar2 = key.rfind('|');
        std::string fname = key.substr(0, bar1);
        std::string name = key.substr(bar1 + 1, bar2 - bar1 - 1);
        int track = std::stoi(key.substr(bar2 + 1));
        TraceFlag flag = TraceFlag::Psb;
        for (unsigned i = 0; i < kNumTraceFlags; ++i) {
            if (fname == kFlagNames[i])
                flag = TraceFlag(i);
        }
        for (unsigned d = 0; d < depth; ++d)
            writeEvent(flag, 'E', _lastEmitted, name.c_str(), track, "");
    }
    _openSpans.clear();
    if (_out && _format == Format::Chrome)
        *_out << "\n]\n";
    if (_out)
        _out->flush();
    _active = false;
    g_traceMask.store(0, std::memory_order_relaxed);
}

void
TraceManager::reset()
{
    MutexLock lock(_mu);
    finishLocked();
    _out = nullptr;
    _owned.reset();
    _events = 0;
}

} // namespace psb
