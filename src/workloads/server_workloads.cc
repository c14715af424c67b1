#include "workloads/server_workloads.hh"

namespace psb
{

namespace
{

/** splitmix64-style stateless mix for derived keys and hashes. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

// ------------------------------------------------------------------ //
// GraphTraversal ("graph")
// ------------------------------------------------------------------ //

GraphTraversal::GraphTraversal() : GraphTraversal(Params{}) {}

GraphTraversal::GraphTraversal(const Params &params)
    : _params(params),
      _heap(Addr{0x30000000}),
      _rng(params.seed * 0x9e37 + 0x6af1)
{
    unsigned v_count = _params.vertices;
    _rowPtr.reserve(v_count + 1);
    _rowPtr.push_back(0);
    for (unsigned v = 0; v < v_count; ++v) {
        unsigned degree =
            _params.minDegree +
            unsigned(_rng.below(_params.maxDegree - _params.minDegree +
                                1));
        for (unsigned e = 0; e < degree; ++e)
            _colIdx.push_back(unsigned(_rng.below(v_count)));
        _rowPtr.push_back(unsigned(_colIdx.size()));
    }
    _visitedPass.assign(v_count, 0);

    _rowPtrAddr = _heap.alloc((uint64_t(v_count) + 1) * 8, 64);
    _colIdxAddr = _heap.alloc(uint64_t(_colIdx.size()) * 8, 64);
    _vdataAddr = _heap.alloc(uint64_t(v_count) * vdataBytes, 64);
    _visitedAddr = _heap.alloc(uint64_t(v_count) * 8, 64);
    _queueAddr = _heap.alloc(uint64_t(v_count) * 8, 64);

    _queue.reserve(v_count);
    startPass();
}

void
GraphTraversal::enqueue(unsigned v)
{
    _visitedPass[v] = _pass;
    _queue.push_back(v);
}

void
GraphTraversal::startPass()
{
    ++_pass;
    _queue.clear();
    _head = 0;
    _nextRoot = 0;
    // Roots rotate across passes so the BFS tree (and therefore the
    // discovery order the prefetchers can learn) mutates slowly.
    enqueue(unsigned((_pass - 1) % _params.vertices));
}

bool
GraphTraversal::step()
{
    constexpr uint8_t r_queue = 1;
    constexpr uint8_t r_vertex = 2;
    constexpr uint8_t r_row = 3;
    constexpr uint8_t r_edge = 4;
    constexpr uint8_t r_flag = 5;
    constexpr uint8_t r_acc = 6;

    if (_head >= _queue.size()) {
        // Queue drained: scan the visited array for the next
        // untouched component, one probe per step (so a pass's final
        // scan does not queue every vertex's probe at once).
        if (_nextRoot < _params.vertices) {
            unsigned v = _nextRoot++;
            emitLoad(pcBase + 0x80, r_flag, _visitedAddr + v * 8u,
                     r_vertex);
            emitAlu(pcBase + 0x84, r_acc, r_acc, r_flag);
            emitBranch(pcBase + 0x88, _visitedPass[v] != _pass,
                       pcBase + 0x00, r_flag);
            if (_visitedPass[v] != _pass) {
                enqueue(v);
                emitStore(pcBase + 0x8c, _visitedAddr + v * 8u, r_flag,
                          r_vertex);
                emitStore(pcBase + 0x90,
                          _queueAddr + (_queue.size() - 1) * 8, r_vertex,
                          r_queue);
            }
            return true;
        }
        startPass();
        return true;
    }

    // Dequeue: the queue itself is an in-memory ring, read with a
    // unit stride.
    unsigned v = _queue[_head];
    emitLoad(pcBase + 0x00, r_vertex, _queueAddr + _head * 8, r_queue);
    ++_head;

    // Row bounds: two adjacent sequential loads.
    emitLoad(pcBase + 0x04, r_row, _rowPtrAddr + v * 8u, r_vertex);
    emitLoad(pcBase + 0x08, r_edge, _rowPtrAddr + (v + 1) * 8u,
             r_vertex);
    emitAlu(pcBase + 0x0c, r_acc, r_row, r_edge);
    emitBranch(pcBase + 0x10, _rowPtr[v] != _rowPtr[v + 1],
               pcBase + 0x14, r_acc);

    for (unsigned e = _rowPtr[v]; e < _rowPtr[v + 1]; ++e) {
        unsigned u = _colIdx[e];
        // Adjacency scan: unit-stride over colIdx...
        emitLoad(pcBase + 0x14, r_edge, _colIdxAddr + uint64_t(e) * 8,
                 r_row);
        emitAlu(pcBase + 0x18, r_acc, r_acc, r_edge);
        // ...feeding data-dependent gathers: the visited flag and the
        // 64-byte vertex record, both indexed by the loaded neighbor.
        emitLoad(pcBase + 0x1c, r_flag, _visitedAddr + u * 8u, r_edge);
        emitAlu(pcBase + 0x20, r_acc, r_acc, r_flag);
        emitBranch(pcBase + 0x24, _visitedPass[u] == _pass,
                   pcBase + 0x14, r_flag);
        if (_visitedPass[u] != _pass) {
            enqueue(u);
            emitLoad(pcBase + 0x28, r_acc,
                     _vdataAddr + uint64_t(u) * vdataBytes, r_edge);
            emitAlu(pcBase + 0x2c, r_acc, r_acc);
            emitStore(pcBase + 0x30, _visitedAddr + u * 8u, r_flag,
                      r_edge);
            emitStore(pcBase + 0x34,
                      _queueAddr + (_queue.size() - 1) * 8, r_edge,
                      r_queue);
        }
    }

    emitAlu(pcBase + 0x38, r_acc, r_acc);
    emitBranch(pcBase + 0x3c, true, pcBase + 0x00, r_acc);
    return true;
}

// ------------------------------------------------------------------ //
// HashJoin ("hashjoin")
// ------------------------------------------------------------------ //

HashJoin::HashJoin() : HashJoin(Params{}) {}

HashJoin::HashJoin(const Params &params)
    : _params(params),
      // Build-side nodes are scatter-allocated: bucket chains have no
      // usable stride, like a heap-built hash table after churn.
      _heap(Addr{0x40000000}, /*scatter_blocks=*/64, params.seed),
      _rng(params.seed * 0x9e37 + 0x70b3)
{
    _bucketAddr = _heap.alloc(uint64_t(_params.buckets) * 8, 64);
    _probeAddr =
        _heap.alloc(uint64_t(_params.probeRows) * probeRowBytes, 64);
    _outputAddr = _heap.alloc(outputRingBytes, 64);

    // Dense build keys 0..buildRows-1: with buckets = buildRows/2 the
    // chains are short and every probe key in range matches.
    _bucketHead.assign(_params.buckets, -1);
    _nodes.reserve(_params.buildRows);
    for (unsigned row = 0; row < _params.buildRows; ++row) {
        Node node;
        node.addr = _heap.alloc(nodeBytes, 64);
        node.key = row;
        unsigned h = row % _params.buckets;
        node.next = _bucketHead[h];
        _bucketHead[h] = int(row);
        _nodes.push_back(node);
    }
}

bool
HashJoin::step()
{
    constexpr uint8_t r_probe = 1;
    constexpr uint8_t r_key = 2;
    constexpr uint8_t r_hash = 3;
    constexpr uint8_t r_node = 4;
    constexpr uint8_t r_val = 5;
    constexpr uint8_t r_acc = 6;

    // The probe relation is a ring: every lap replays the same key
    // sequence, so the chain walks recur exactly — the behaviour a
    // Markov predictor can exploit and a stride table cannot.
    uint64_t row = _probeCursor % _params.probeRows;
    uint64_t key = mix64(row * 0x100 + _params.seed) %
                   (uint64_t(_params.buildRows) * 2);
    ++_probeCursor;

    // Sequential scan of the probe relation (32-byte rows).
    emitLoad(pcBase + 0x00, r_key, _probeAddr + row * probeRowBytes,
             r_probe);
    emitAlu(pcBase + 0x04, r_hash, r_key);
    emitAlu(pcBase + 0x08, r_hash, r_hash, r_key);
    emitAlu(pcBase + 0x0c, r_hash, r_hash);

    // Bucket-head gather, indexed by the computed hash.
    unsigned h = unsigned(key % _params.buckets);
    emitLoad(pcBase + 0x10, r_node, _bucketAddr + h * 8u, r_hash);
    emitBranch(pcBase + 0x14, _bucketHead[h] >= 0, pcBase + 0x18,
               r_node);

    // Chain walk: serialised loads through the node next pointers.
    int node = _bucketHead[h];
    bool matched = false;
    while (node >= 0) {
        const Node &rec = _nodes[size_t(node)];
        emitLoad(pcBase + 0x18, r_node, rec.addr + 0, r_node);
        emitAlu(pcBase + 0x1c, r_acc, r_key, r_node);
        emitBranch(pcBase + 0x20, rec.key == key, pcBase + 0x18,
                   r_node);
        if (rec.key == key) {
            matched = true;
            // Payload fetch + append to the sequential output ring.
            emitLoad(pcBase + 0x24, r_val, rec.addr + 8, r_node);
            emitAlu(pcBase + 0x28, r_acc, r_acc, r_val);
            emitStore(pcBase + 0x2c,
                      _outputAddr +
                          (_outputCursor % (outputRingBytes / 8)) * 8,
                      r_acc, r_acc);
            ++_outputCursor;
            break;
        }
        node = rec.next;
    }

    emitAlu(pcBase + 0x30, r_acc, r_acc);
    emitBranch(pcBase + 0x34, matched, pcBase + 0x00, r_acc);
    return true;
}

// ------------------------------------------------------------------ //
// LogStructured ("logscan")
// ------------------------------------------------------------------ //

LogStructured::LogStructured() : LogStructured(Params{}) {}

LogStructured::LogStructured(const Params &params)
    : _params(params),
      _heap(Addr{0x50000000}),
      _rng(params.seed * 0x9e37 + 0x109c)
{
    _logRecords = uint64_t(_params.logKb) * 1024 / recordBytes;
    _logAddr = _heap.alloc(_logRecords * recordBytes, 64);
    _indexAddr = _heap.alloc(uint64_t(_params.indexBuckets) * 8, 64);
    _frameAddr = _heap.alloc(256, 64);
    // The scan trails the append head by a fixed lag, re-reading
    // records while they are still L2-resident.
    _appendCursor = _params.scanLag;
}

Addr
LogStructured::recordAddr(uint64_t record) const
{
    return _logAddr + (record % _logRecords) * recordBytes;
}

bool
LogStructured::step()
{
    constexpr uint8_t r_head = 1;
    constexpr uint8_t r_rec = 2;
    constexpr uint8_t r_idx = 3;
    constexpr uint8_t r_val = 4;
    constexpr uint8_t r_acc = 5;

    // Append two records at the log head: sequential stores plus a
    // scattered read-modify-write of the index bucket.
    for (unsigned k = 0; k < 2; ++k) {
        uint64_t rec = _appendCursor++;
        unsigned h = unsigned(mix64(rec) % _params.indexBuckets);
        emitAlu(pcBase + 0x00, r_rec, r_head);
        emitStore(pcBase + 0x04, recordAddr(rec), r_rec, r_head);
        emitAlu(pcBase + 0x08, r_idx, r_rec);
        emitLoad(pcBase + 0x0c, r_val, _indexAddr + h * 8u, r_idx);
        emitAlu(pcBase + 0x10, r_val, r_val, r_rec);
        emitStore(pcBase + 0x14, _indexAddr + h * 8u, r_val, r_idx);
        emitBranch(pcBase + 0x18, k == 0, pcBase + 0x00, r_val);
    }

    // Point query of a recently appended record through the index:
    // index probe then a data-dependent load into the log.
    uint64_t window = _appendCursor < 4096 ? _appendCursor : 4096;
    uint64_t rec = _appendCursor - 1 - _rng.below(window);
    unsigned qh = unsigned(mix64(rec) % _params.indexBuckets);
    emitLoad(pcBase + 0x20, r_idx, _indexAddr + qh * 8u, r_acc);
    emitLoad(pcBase + 0x24, r_val, recordAddr(rec), r_idx);
    emitAlu(pcBase + 0x28, r_acc, r_acc, r_val);
    emitBranch(pcBase + 0x2c, (rec & 1) != 0, pcBase + 0x20, r_val);

    // Lagging segment scan: eight sequential record reads.
    for (unsigned k = 0; k < 8; ++k) {
        emitLoad(pcBase + 0x30, r_val, recordAddr(_scanCursor), r_rec);
        emitAlu(pcBase + 0x34, r_acc, r_acc, r_val);
        if ((k & 3) == 3)
            emitBranch(pcBase + 0x38, k < 7, pcBase + 0x30, r_val);
        ++_scanCursor;
    }

    emitAlu(pcBase + 0x3c, r_acc, r_acc);
    emitStore(pcBase + 0x40, _frameAddr + 8 * (_scanCursor & 7), r_acc,
              r_acc);
    emitBranch(pcBase + 0x44, true, pcBase + 0x00, r_acc);
    return true;
}

} // namespace psb
