/*
 * Compiled fused access kernel of the batch simulator core.
 *
 * One Stepper runs one core's trace through its MemoryHierarchy: core
 * dispatch/ROB timing, page translation with first-touch frame allocation,
 * the L1D->L2C->LLC->DRAM walk with its LRU updates and fills, speculative
 * DRAM requests, the FLP feature history, weight sums and training,
 * the L1D/L2C prefetch issue paths, and the order-dependent kernels of the
 * stock prefetchers and filters: IPCP or Berti at the L1D, SPP at the L2C,
 * the SLP filter above the L1D and the PPF filter behind SPP.  It works on
 * the very state the scalar reference uses, in the same order and with the
 * same arithmetic.  All model state that is not a Python object is flat
 * typed arrays, read and written in place through the buffer protocol
 * (state_array): each cache's _tags, _stamps, _ready, _flags, _source,
 * _set_fill and one-element _clock (repro.memory.cache.Cache), the DRAM
 * channel's one-element _busy_until, the HashedPerceptron weights of FLP
 * (Hermes is FLP without selective delay), SLP and PPF, which all score
 * through perceptron_predict, IPCP's IP/CPLX tables and region FIFO, Berti's
 * per-entry rows (page, total, history, delta counters, confirmed deltas),
 * SPP's signature FIFO and pattern table, and each feature history's page
 * buffer (an LRU of page keys, last-use stamps and a clock) and last PCs.
 * Every counter is a slot of its owner's int64 ``counts`` array
 * (repro.common.counters): the hierarchy's, each cache's, the DRAM
 * channel's and each perceptron's stats, and FLP's, SLP's, PPF's, SPP's,
 * IPCP's and the page table's own.  The kernel increments a slot where its
 * event happens; the enums below mirror the Python layouts, and the module's
 * COUNTER_LAYOUT exports them for a test to pin.  Nothing is copied in or
 * written back (but the core runner's timing state and the off-chip
 * predictor's last prediction, at the end of the trace), so every core of a
 * mix sees the others' DRAM and LLC updates with no copy to refresh, and the
 * scalar reference can pick up a table or a counter wherever the kernel left
 * it.  The kernel keeps only private lookup indexes beside the FIFO and LRU
 * keys (KeyIndex and the page buffer's recency list), built when the Stepper
 * is built and updated alongside the keys.  An issued L1D prefetch is
 * tracked by the PREFETCH_PENDING bit of its L1D slot's flags, with its
 * serve level in _source, so it boxes nothing.  The page table's _mapping
 * and _allocated_frames and PPF's pending-prefetch dict stay Python objects;
 * a block address is boxed only to key PPF's pending dict or an
 * EvictionInfo.  PPF training on prefetch use and L2C eviction stays a
 * Python call.  Only hierarchies of those stock components run here; the
 * batch core rejects any other with a ValueError before building a Stepper
 * (repro.sim.batch.use_kernel), and a run is all Steppers or all scalar
 * reference.
 *
 * Every index reduction (cache set, hashed perceptron slot, IPCP/Berti/SPP
 * table key, FIFO slot, page-frame probe) goes through py_mod: a
 * non-negative index is masked when the table size is a power of two, as
 * every Table III structure is, and taken as is when already in range;
 * only other sizes divide (%), in the out-of-line py_mod_divide.  The ROB's
 * retire ring, of rob_size + 1 slots, wraps by compare-and-subtract.
 *
 * Stepper.run() runs one core's trace to its end.  run_mix() interleaves
 * the Steppers of a multi-core mix: it pauses each before every load/store
 * and resumes the core with the smallest (dispatch cycle, core id).  A
 * Stepper given a sample hook calls it right after every N-th load/store of
 * its trace, where the scalar reference cuts a sampled phase.  Built on
 * first use by repro.sim.native.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Interned names and the model's Python types                         */
/* ------------------------------------------------------------------ */

static PyObject *EvictionInfoType;
static long long BertiHistoryDepth;

#define NAMES(X)                                                             \
    X(_clock) X(_busy_until) X(_tags) X(_stamps) X(_ready) X(_flags)         \
    X(_source) X(_set_fill) X(stats) X(counts) X(_eviction_listener)         \
    X(num_sets) X(associativity)                                             \
    X(latency) X(l1d) X(l2c) X(llc) X(dram) X(page_table) X(_mapping)        \
    X(_allocated_frames) X(core_id) X(memory_frames)                         \
    X(_resolve_l2c_prefetch_use) X(_pending_l2c_prefetches)                  \
    X(_predictor_latency)                                                    \
    X(_prefetch_drop_queue_cycles) X(_cycles_per_transaction) X(config)      \
    X(access_latency)                                                        \
    X(offchip_predictor) X(l1d_prefetcher) X(l2_prefetcher)                  \
    X(l1d_prefetch_filter) X(l2_prefetch_filter)                             \
    X(perceptron) X(_tables) X(_weight_limits) X(training_threshold)         \
    X(threshold) X(last_prediction) X(tau_high) X(tau_low)                   \
    X(selective_delay)                                                       \
    X(_retire_times) X(rob_size) X(dispatch_interval) X(_dispatch_cycle)     \
    X(_last_retire) X(instructions) X(loads) X(stores)                       \
    X(total_load_latency) X(clear) X(extend)                                 \
    /* IPCP */                                                               \
    X(ip_table_entries) X(cplx_table_entries) X(region_entries)              \
    X(cs_degree) X(cplx_degree) X(gs_degree) X(nl_degree)                    \
    X(cs_confidence_threshold) X(gs_density_threshold) X(_ip_buf)            \
    X(_cplx_buf) X(_regions) X(_region_touched) X(_region_offset)            \
    X(_region_direction) X(pages) X(inserted)                                \
    /* Berti */                                                              \
    X(table_entries) X(low_coverage) X(max_prefetch_degree)                  \
    X(relearn_interval) X(_pages) X(_totals) X(_history) X(_history_lengths) \
    X(_delta_counts) X(_delta_order) X(_delta_lengths) X(_confirmed_deltas)  \
    X(_confirmed_coverage) X(_confirmed_lengths)                             \
    /* SPP */                                                                \
    X(signature_table_entries) X(pattern_table_entries)                      \
    X(lookahead_confidence) X(l2_fill_confidence) X(max_lookahead_depth)     \
    X(_signatures) X(_signature_packed)                                      \
    X(_pattern_counts) X(_pattern_deltas) X(_pattern_lengths)                \
    X(_pattern_totals) X(_pattern_best_delta) X(_pattern_best_count)         \
    /* PPF, SLP and the feature histories */                                 \
    X(_weights) X(tau_pref)                                                  \
    X(use_leveling_feature) X(history) X(page_buffer_entries) X(_pcs)        \
    X(_pc_count)

#define DECLARE_NAME(n) static PyObject *S_##n;
NAMES(DECLARE_NAME)
#undef DECLARE_NAME

/* ------------------------------------------------------------------ */
/* Counter layouts (repro.common.counters)                             */
/* ------------------------------------------------------------------ */

/* The slots of each class's ``counts`` array, in its declared order: X(p, n)
 * is the slot p_n, L(p, n) the four slots from p_n on, L1D to DRAM. */
#define HIERARCHY_COUNTERS(X, L)                                             \
    X(H, demand_loads) X(H, demand_stores) L(H, served_by)                   \
    L(H, offchip_prediction_location) X(H, speculative_requests)             \
    X(H, delayed_speculative_requests) X(H, delayed_predictions_saved)       \
    X(H, offchip_predictions) X(H, l1d_prefetch_candidates)                  \
    X(H, l1d_prefetches_filtered) X(H, l1d_prefetches_dropped_resident)      \
    X(H, l1d_prefetches_dropped_queue_full)                                  \
    X(H, l2c_prefetches_dropped_queue_full) X(H, l1d_prefetches_issued)      \
    L(H, l1d_prefetch_served_by) X(H, l2c_prefetch_candidates)               \
    X(H, l2c_prefetches_filtered) X(H, l2c_prefetches_dropped_resident)      \
    X(H, l2c_prefetches_issued) X(H, useful_l1d_prefetches)                  \
    X(H, useless_l1d_prefetches) L(H, accurate_prefetch_source)              \
    L(H, inaccurate_prefetch_source)
#define CACHE_COUNTERS(X, L)                                                 \
    X(C, demand_accesses) X(C, demand_hits) X(C, demand_misses)              \
    X(C, prefetch_fills) X(C, demand_fills) X(C, evictions)                  \
    X(C, useful_prefetch_evictions) X(C, useless_prefetch_evictions)         \
    X(C, prefetch_hits) X(C, writebacks)
#define DRAM_COUNTERS(X, L)                                                  \
    X(D, total_transactions) X(D, demand_transactions)                       \
    X(D, l1d_prefetch_transactions) X(D, l2c_prefetch_transactions)          \
    X(D, speculative_transactions) X(D, total_queue_cycles)                  \
    X(D, max_queue_cycles)
#define PERCEPTRON_COUNTERS(X, L)                                            \
    X(P, predictions) X(P, positive_predictions) X(P, training_events)       \
    X(P, weight_updates) X(P, correct_predictions)
#define FLP_COUNTERS(X, L)                                                   \
    X(FLP, immediate_decisions) X(FLP, delayed_decisions)                    \
    X(FLP, negative_decisions)
#define SLP_COUNTERS(X, L) X(SLP, consultations) X(SLP, discarded) X(SLP, issued)
#define PPF_COUNTERS(X, L) X(PPF, consultations) X(PPF, rejected) X(PPF, accepted)
#define SPP_COUNTERS(X, L) X(SPP, lookahead_prefetches)
/* IPCP's class_counts, by class. */
#define IPCP_COUNTERS(X, L)                                                  \
    X(IPCP, cs) X(IPCP, cplx) X(IPCP, gs) X(IPCP, nl) X(IPCP, none)
#define PAGE_TABLE_COUNTERS(X, L) X(PT, page_faults)

/* G(class, prefix, layout, name prefix) for every counter-owning class. */
#define COUNTER_GROUPS(G)                                                    \
    G(HierarchyStats, H, HIERARCHY_COUNTERS, "")                             \
    G(CacheStats, C, CACHE_COUNTERS, "")                                     \
    G(DRAMStats, D, DRAM_COUNTERS, "")                                       \
    G(PerceptronStats, P, PERCEPTRON_COUNTERS, "")                           \
    G(FirstLevelPerceptron, FLP, FLP_COUNTERS, "")                           \
    G(SecondLevelPerceptron, SLP, SLP_COUNTERS, "")                          \
    G(PerceptronPrefetchFilter, PPF, PPF_COUNTERS, "")                       \
    G(SPPPrefetcher, SPP, SPP_COUNTERS, "")                                  \
    G(IPCPPrefetcher, IPCP, IPCP_COUNTERS, "class_counts.")                  \
    G(PageTable, PT, PAGE_TABLE_COUNTERS, "")

#define ENUM_SLOT(p, n) p##_##n,
#define ENUM_LEVELS(p, n) p##_##n, p##_##n##_DRAM = p##_##n + 3,
#define ENUM_GROUP(cls, p, layout, prefix) enum { layout(ENUM_SLOT, ENUM_LEVELS) p##_COUNT };
COUNTER_GROUPS(ENUM_GROUP)
#undef ENUM_GROUP
#undef ENUM_LEVELS
#undef ENUM_SLOT

static int
add_layout(PyObject *layout, const char *cls, const char *prefix,
           const char *const *names, Py_ssize_t count)
{
    PyObject *slots = PyTuple_New(count);
    for (Py_ssize_t i = 0; slots != NULL && i < count; i++) {
        PyObject *name = PyUnicode_FromFormat("%s%s", prefix, names[i]);
        if (name == NULL)
            Py_CLEAR(slots);
        else
            PyTuple_SET_ITEM(slots, i, name);
    }
    int rc = slots == NULL ? -1 : PyDict_SetItemString(layout, cls, slots);
    Py_XDECREF(slots);
    return rc;
}

/* {class name: slot names}: the layouts the kernel was compiled with. */
static PyObject *
counter_layout(void)
{
    PyObject *layout = PyDict_New();
#define NAME_SLOT(p, n) #n,
#define NAME_LEVELS(p, n) #n ".L1D", #n ".L2C", #n ".LLC", #n ".DRAM",
#define ADD_GROUP(cls, p, slots, prefix)                                      \
    {                                                                         \
        static const char *const names[] = {slots(NAME_SLOT, NAME_LEVELS)};   \
        if (layout != NULL && add_layout(layout, #cls, prefix, names, p##_COUNT) < 0) \
            Py_CLEAR(layout);                                                 \
    }
    COUNTER_GROUPS(ADD_GROUP)
#undef ADD_GROUP
#undef NAME_LEVELS
#undef NAME_SLOT
    return layout;
}

static inline int
truth(PyObject *value)
{
    if (value == Py_True)
        return 1;
    if (value == Py_False || value == Py_None)
        return 0;
    return PyObject_IsTrue(value);
}

static PyObject *
import_attr(const char *module, const char *name)
{
    PyObject *mod = PyImport_ImportModule(module);
    if (mod == NULL)
        return NULL;
    PyObject *value = PyObject_GetAttrString(mod, name);
    Py_DECREF(mod);
    return value;
}

/* Resolve the model types and their slot layout once per process. */
static int
load_model_types(void)
{
    if (EvictionInfoType != NULL)
        return 0;
    PyObject *info = import_attr("repro.memory.cache", "EvictionInfo");
    PyObject *depth = import_attr("repro.prefetchers.berti", "_HISTORY_DEPTH");
    if (info == NULL || depth == NULL)
        goto error;
    BertiHistoryDepth = PyLong_AsLongLong(depth);
    if (BertiHistoryDepth < 1 || BertiHistoryDepth > 255) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "Berti history depth out of range");
        goto error;
    }
    Py_DECREF(depth);
    EvictionInfoType = info;
    return 0;
error:
    Py_XDECREF(info);
    Py_XDECREF(depth);
    return -1;
}

/* ------------------------------------------------------------------ */
/* Small helpers over Python objects                                   */
/* ------------------------------------------------------------------ */

static inline int
as_ll(PyObject *value, long long *out)
{
    *out = PyLong_AsLongLong(value);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
get_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    int rc = as_ll(value, out);
    Py_DECREF(value);
    return rc;
}

static int
get_double(PyObject *obj, PyObject *name, double *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    *out = PyFloat_AsDouble(value);
    Py_DECREF(value);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int
get_truth(PyObject *obj, PyObject *name, int *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    *out = truth(value);
    Py_DECREF(value);
    return *out < 0 ? -1 : 0;
}

/* obj.name += delta (Python int arithmetic; nothing to do for 0). */
static int
add_attr(PyObject *obj, PyObject *name, long long delta)
{
    if (delta == 0)
        return 0;
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    PyObject *boxed = PyLong_FromLongLong(delta);
    if (boxed == NULL) {
        Py_DECREF(value);
        return -1;
    }
    PyObject *sum = PyNumber_Add(value, boxed);
    Py_DECREF(value);
    Py_DECREF(boxed);
    if (sum == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, sum);
    Py_DECREF(sum);
    return rc;
}

static PyObject *
call1(PyObject *f, PyObject *a)
{
    PyObject *args[2] = {NULL, a};
    return PyObject_Vectorcall(f, args + 1, 1 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
}

static PyObject *
call3(PyObject *f, PyObject *a, PyObject *b, PyObject *c)
{
    PyObject *args[4] = {NULL, a, b, c};
    return PyObject_Vectorcall(f, args + 1, 3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
}

static PyObject *
call4(PyObject *f, PyObject *a, PyObject *b, PyObject *c, PyObject *d)
{
    PyObject *args[5] = {NULL, a, b, c, d};
    return PyObject_Vectorcall(f, args + 1, 4 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
}

/* Call f(...) for its side effects only. */
static inline int
discard(PyObject *result)
{
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

static inline PyObject *
py_bool(int value)
{
    return value ? Py_True : Py_False;
}

/* The dividing case of py_mod, kept out of line and off the hot path. */
static __attribute__((noinline, cold)) int64_t
py_mod_divide(int64_t a, int64_t m)
{
    int64_t r = a % m;
    return r < 0 ? r + m : r;
}

/* Python's ``a % m`` for m > 0: every index reduction of the kernel.  A
 * non-negative ``a`` is masked when ``m`` is a power of two and returned
 * as is when already below ``m``; only the rest divide. */
static inline int64_t
py_mod(int64_t a, int64_t m)
{
    if (a >= 0) {
        if ((m & (m - 1)) == 0)
            return a & (m - 1);
        if (a < m)
            return a;
    }
    return py_mod_divide(a, m);
}

/* Python's ``a // 2``. */
static inline int64_t
py_half(int64_t a)
{
    return a >= 0 ? a / 2 : -((1 - a) / 2);
}

/* ``block << 6``: the address of a block, or -1 with OverflowError. */
static inline int
block_address(int64_t block, int64_t *out)
{
    if (__builtin_mul_overflow(block, (int64_t)64, out)) {
        PyErr_SetString(PyExc_OverflowError, "prefetch target beyond 64-bit addresses");
        return -1;
    }
    return 0;
}

static inline int
add_checked(int64_t a, int64_t b, int64_t *out)
{
    if (__builtin_add_overflow(a, b, out)) {
        PyErr_SetString(PyExc_OverflowError, "prefetch target beyond 64-bit addresses");
        return -1;
    }
    return 0;
}

static void *
mem_calloc(Py_ssize_t count, size_t size)
{
    void *memory = PyMem_Calloc(count > 0 ? (size_t)count : 1, size);
    if (memory == NULL)
        PyErr_NoMemory();
    return memory;
}

/* A held buffer view of a state array. */
typedef struct {
    Py_buffer view;
    int held;
} View;

static void
view_release(View *v)
{
    if (v->held) {
        PyBuffer_Release(&v->view);
        v->held = 0;
    }
}

/* One of a model object's flat state arrays, used in place: ``length``
 * items (any number when negative) of array typecode ``code``; ``what``
 * names the owner in errors. */
static void *
state_array(View *v, PyObject *obj, PyObject *name, char code, Py_ssize_t length,
            const char *what)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return NULL;
    int rc = PyObject_GetBuffer(value, &v->view,
                                PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT);
    Py_DECREF(value);
    if (rc == 0)
        v->held = 1;
    Py_ssize_t itemsize = code == 'b' || code == 'B' ? 1 : code == 'i' ? 4 : 8;
    if (rc < 0 || v->view.ndim != 1 || v->view.format == NULL
        || v->view.format[0] != code || v->view.format[1] != '\0'
        || v->view.itemsize != itemsize) {
        PyErr_Clear();
        PyErr_Format(PyExc_TypeError, "unexpected %s state layout", what);
        return NULL;
    }
    if (length >= 0 && v->view.shape[0] != length) {
        PyErr_Format(PyExc_ValueError, "%s state does not match its geometry", what);
        return NULL;
    }
    return v->view.buf;
}

/* The ``count`` counters of ``obj`` (a repro.common.counters.Counters). */
static int64_t *
counter_array(View *v, PyObject *obj, Py_ssize_t count, const char *what)
{
    return state_array(v, obj, S_counts, 'q', count, what);
}

/* The counters of ``obj.stats``. */
static int64_t *
stats_array(View *v, PyObject *obj, Py_ssize_t count, const char *what)
{
    PyObject *stats = PyObject_GetAttr(obj, S_stats);
    if (stats == NULL)
        return NULL;
    int64_t *counts = counter_array(v, stats, count, what);
    Py_DECREF(stats);
    return counts;
}

/* ------------------------------------------------------------------ */
/* Hashing (repro.common.hashing)                                      */
/* ------------------------------------------------------------------ */

#define MASK32 0xFFFFFFFFull

static inline uint64_t
jenkins32(uint64_t value)
{
    value &= MASK32;
    value = (value + 0x7ED55D16ull + (value << 12)) & MASK32;
    value = (value ^ 0xC761C23Cull ^ (value >> 19)) & MASK32;
    value = (value + 0x165667B1ull + (value << 5)) & MASK32;
    value = ((value + 0xD3A2646Cull) ^ (value << 9)) & MASK32;
    value = (value + 0xFD7046C5ull + (value << 3)) & MASK32;
    value = (value ^ 0xB55A4F09ull ^ (value >> 16)) & MASK32;
    return value;
}

static inline uint64_t
hash_step(uint64_t accumulator, uint64_t component)
{
    accumulator = ((accumulator << 7) | (accumulator >> 25)) & MASK32;
    return accumulator ^ jenkins32(component);
}

/* hash_combine(a, b) */
static inline uint64_t
hash_pair(uint64_t a, uint64_t b)
{
    return hash_step(hash_step(0x9E3779B9ull, a), b);
}

/* fold_xor(value, bits) for a 32-bit value and 1 <= bits < 64: a fixed
 * trip count per ``bits`` (the bit groups past the value's top bit are 0). */
static inline uint64_t
fold_xor(uint64_t value, int bits)
{
    uint64_t mask = (1ull << bits) - 1, folded = 0;
    for (int shift = 0; shift < 32; shift += bits)
        folded ^= (value >> shift) & mask;
    return folded;
}

/* table_index(value, bits) % entries */
static inline Py_ssize_t
table_slot(uint64_t value, int bits, Py_ssize_t entries)
{
    return (Py_ssize_t)py_mod((int64_t)fold_xor(jenkins32(value), bits), entries);
}

/* max(1, (entries - 1).bit_length()) */
static int
index_bits(Py_ssize_t entries)
{
    int bits = 0;
    for (uint64_t rest = (uint64_t)(entries - 1); rest; rest >>= 1)
        bits++;
    return bits > 1 ? bits : 1;
}

/* ------------------------------------------------------------------ */
/* Key indexes over the shared FIFO and LRU tables                     */
/* ------------------------------------------------------------------ */

/* The FIFO and LRU tables of the components (IPCP regions, SPP signatures,
 * the feature histories' page buffers) keep one int64 key per slot in a
 * shared array, -1 in a free slot.  The kernel finds a key's slot through a
 * private open-addressing index (linear probing, backward-shift deletion),
 * built from the shared keys when the Stepper is built and updated
 * alongside them. */
typedef struct {
    int64_t *keys;     /* shared */
    Py_ssize_t *index; /* slots by key hash, -1 when empty */
    size_t mask;
    int shift;
} KeyIndex;

static inline size_t
index_home(const KeyIndex *x, int64_t key)
{
    return (size_t)(((uint64_t)key * 0x9E3779B97F4A7C15ull) >> x->shift);
}

/* The slot holding ``key``, or -1. */
static inline Py_ssize_t
index_find(const KeyIndex *x, int64_t key)
{
    for (size_t i = index_home(x, key);; i = (i + 1) & x->mask) {
        Py_ssize_t slot = x->index[i];
        if (slot < 0 || x->keys[slot] == key)
            return slot;
    }
}

/* Index the key just stored in ``slot``. */
static inline void
index_add(KeyIndex *x, Py_ssize_t slot)
{
    size_t i = index_home(x, x->keys[slot]);
    while (x->index[i] >= 0)
        i = (i + 1) & x->mask;
    x->index[i] = slot;
}

/* Drop the key still stored in ``slot`` from the index. */
static void
index_remove(KeyIndex *x, Py_ssize_t slot)
{
    size_t hole = index_home(x, x->keys[slot]);
    while (x->index[hole] != slot)
        hole = (hole + 1) & x->mask;
    for (size_t j = (hole + 1) & x->mask; x->index[j] >= 0; j = (j + 1) & x->mask) {
        size_t home = index_home(x, x->keys[x->index[j]]);
        /* An entry whose home lies cyclically in (hole, j] stays put. */
        int stays = hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
        if (!stays) {
            x->index[hole] = x->index[j];
            hole = j;
        }
    }
    x->index[hole] = -1;
}

/* Index the occupied slots of ``cap`` shared keys. */
static int
index_init(KeyIndex *x, int64_t *keys, Py_ssize_t cap, const char *what)
{
    size_t size = 4;
    int bits = 2;
    while (size < (size_t)cap * 2) {
        size <<= 1;
        bits++;
    }
    x->keys = keys;
    x->mask = size - 1;
    x->shift = 64 - bits;
    if ((x->index = mem_calloc((Py_ssize_t)size, sizeof(Py_ssize_t))) == NULL)
        return -1;
    memset(x->index, 0xff, size * sizeof(Py_ssize_t));
    for (Py_ssize_t slot = 0; slot < cap; slot++) {
        if (keys[slot] == -1)
            continue;
        if (index_find(x, keys[slot]) >= 0) {
            PyErr_Format(PyExc_ValueError, "%s table repeats a key", what);
            return -1;
        }
        index_add(x, slot);
    }
    return 0;
}

static void
index_free(KeyIndex *x)
{
    PyMem_Free(x->index);
    x->index = NULL;
}

/* A FIFO table (repro.prefetchers.base.FifoTable): the shared keys and
 * one-element insertion count; key n takes slot n % cap, the oldest key's
 * once the table is full. */
typedef struct {
    View views[2];
    KeyIndex index;
    int64_t *inserted;
    Py_ssize_t cap;
} Fifo;

/* Bind the FifoTable ``obj.name`` of ``cap`` keys. */
static int
fifo_bind(Fifo *f, PyObject *obj, PyObject *name, Py_ssize_t cap, const char *what)
{
    PyObject *table = PyObject_GetAttr(obj, name);
    if (table == NULL)
        return -1;
    int64_t *keys = state_array(&f->views[0], table, S_pages, 'q', cap, what);
    f->inserted = keys ? state_array(&f->views[1], table, S_inserted, 'q', 1, what) : NULL;
    Py_DECREF(table);
    if (f->inserted == NULL)
        return -1;
    if (*f->inserted < 0) {
        PyErr_Format(PyExc_ValueError, "%s FIFO insertion count is negative", what);
        return -1;
    }
    f->cap = cap;
    return index_init(&f->index, keys, cap, what);
}

/* Store an absent ``key`` over the oldest; returns its slot. */
static inline Py_ssize_t
fifo_push(Fifo *f, int64_t key)
{
    Py_ssize_t slot = (Py_ssize_t)py_mod(*f->inserted, f->cap);
    if (f->index.keys[slot] != -1)
        index_remove(&f->index, slot);
    f->index.keys[slot] = key;
    index_add(&f->index, slot);
    ++*f->inserted;
    return slot;
}

static void
fifo_release(Fifo *f)
{
    view_release(&f->views[0]);
    view_release(&f->views[1]);
    index_free(&f->index);
}

/* ------------------------------------------------------------------ */
/* Hashed perceptrons (FLP, SLP and PPF)                               */
/* ------------------------------------------------------------------ */

/* The most weight tables of any perceptron bound here: PPF's nine. */
#define MAX_FEATURES 9

typedef struct {
    int features;
    View view;
    int32_t *tables[MAX_FEATURES];
    Py_ssize_t entries[MAX_FEATURES];
    int bits[MAX_FEATURES];
    long long lo[MAX_FEATURES], hi[MAX_FEATURES];
    long long threshold; /* the decision boundary */
    double training_threshold;
    View counts_view;
    int64_t *counts; /* the PerceptronStats */
} Perceptron;

/* Bind ``owner.perceptron``, a HashedPerceptron: its flat weights (in
 * place; each feature's table follows the previous one's), limits and
 * thresholds. */
static int
perceptron_bind(Perceptron *p, PyObject *owner, int features)
{
    int rc = -1;
    PyObject *tables = NULL, *limits = NULL;
    PyObject *perceptron = PyObject_GetAttr(owner, S_perceptron);
    if (perceptron == NULL
        || (p->counts = stats_array(&p->counts_view, perceptron, P_COUNT, "perceptron")) == NULL
        || (tables = PyObject_GetAttr(perceptron, S__tables)) == NULL
        || (limits = PyObject_GetAttr(perceptron, S__weight_limits)) == NULL
        || get_ll(perceptron, S_threshold, &p->threshold) < 0
        || get_double(perceptron, S_training_threshold, &p->training_threshold) < 0)
        goto done;
    if (PySequence_Size(tables) != features || PySequence_Size(limits) != features) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_ValueError, "the fused kernel models %d feature tables here",
                         features);
        goto done;
    }
    Py_ssize_t total = 0;
    for (int f = 0; f < features; f++) {
        PyObject *table = PySequence_GetItem(tables, f);
        PyObject *bound = PySequence_GetItem(limits, f);
        p->entries[f] = table ? PyObject_Length(table) : -1;
        int ok = p->entries[f] >= 0 && bound
                 && PyArg_ParseTuple(bound, "LL", &p->lo[f], &p->hi[f]);
        Py_XDECREF(table);
        Py_XDECREF(bound);
        if (!ok)
            goto done;
        if (p->entries[f] < 1) {
            PyErr_SetString(PyExc_ValueError, "empty perceptron weight table");
            goto done;
        }
        p->bits[f] = index_bits(p->entries[f]);
        total += p->entries[f];
    }
    int32_t *weights = state_array(&p->view, perceptron, S__weights, 'i', total, "perceptron");
    if (weights == NULL)
        goto done;
    for (int f = 0; f < features; f++) {
        p->tables[f] = weights;
        weights += p->entries[f];
    }
    p->features = features;
    rc = 0;
done:
    Py_XDECREF(perceptron);
    Py_XDECREF(tables);
    Py_XDECREF(limits);
    return rc;
}

static void
perceptron_release(Perceptron *p)
{
    view_release(&p->view);
    view_release(&p->counts_view);
    p->features = 0;
}

/* HashedPerceptron.train */
static void
perceptron_train(Perceptron *p, const Py_ssize_t *indices, int target, long long confidence)
{
    p->counts[P_training_events]++;
    int predicted = confidence >= p->threshold;
    if (predicted == target)
        p->counts[P_correct_predictions]++;
    long long magnitude = confidence >= 0 ? confidence : -confidence;
    if (predicted == target && (double)magnitude >= p->training_threshold)
        return;
    for (int f = 0; f < p->features; f++) {
        long long updated = (long long)p->tables[f][indices[f]] + (target ? 1 : -1);
        if (updated < p->lo[f])
            updated = p->lo[f];
        if (updated > p->hi[f])
            updated = p->hi[f];
        p->tables[f][indices[f]] = (int32_t)updated;
    }
    p->counts[P_weight_updates]++;
}

/* The weight sum of ``indices``, counted as a prediction. */
static inline long long
perceptron_predict(Perceptron *p, const Py_ssize_t *indices)
{
    long long total = 0;
    for (int f = 0; f < p->features; f++)
        total += p->tables[f][indices[f]];
    p->counts[P_predictions]++;
    if (total >= p->threshold)
        p->counts[P_positive_predictions]++;
    return total;
}

/* ------------------------------------------------------------------ */
/* IPCP (repro.prefetchers.ipcp.IPCPPrefetcher._step)                   */
/* ------------------------------------------------------------------ */

typedef struct {
    View views[6];
    int64_t *ip_last, *ip_stride, *ip_conf, *ip_sig, *cplx_stride, *cplx_conf;
    long long n, m, cs_degree, cplx_degree, gs_degree, nl_degree, cs_threshold;
    double gs_density;
    Fifo regions;      /* the page FIFO */
    uint64_t *touched; /* per region slot: touched-block bitmask */
    int8_t *last_offset, *direction;
    int64_t *counts; /* class_counts */
    int64_t *targets;
} IPCP;

/* Bind IPCP's tables and region FIFO (in place). */
static int
ipcp_bind(IPCP *p, PyObject *obj)
{
    long long cap;
    if (get_ll(obj, S_ip_table_entries, &p->n) < 0
        || get_ll(obj, S_cplx_table_entries, &p->m) < 0
        || get_ll(obj, S_region_entries, &cap) < 0
        || get_ll(obj, S_cs_degree, &p->cs_degree) < 0
        || get_ll(obj, S_cplx_degree, &p->cplx_degree) < 0
        || get_ll(obj, S_gs_degree, &p->gs_degree) < 0
        || get_ll(obj, S_nl_degree, &p->nl_degree) < 0
        || get_ll(obj, S_cs_confidence_threshold, &p->cs_threshold) < 0
        || get_double(obj, S_gs_density_threshold, &p->gs_density) < 0)
        return -1;
    if (p->n < 1 || p->m < 1 || cap < 1) {
        PyErr_SetString(PyExc_ValueError, "IPCP tables must have at least one entry");
        return -1;
    }
    long long most = 1;
    long long degrees[4] = {p->cs_degree, p->cplx_degree, p->gs_degree, p->nl_degree};
    for (int i = 0; i < 4; i++)
        most = degrees[i] > most ? degrees[i] : most;
    View *v = p->views;
    int64_t *ip, *cplx;
    if ((ip = state_array(v++, obj, S__ip_buf, 'q', 4 * p->n, "IPCP")) == NULL
        || (cplx = state_array(v++, obj, S__cplx_buf, 'q', 2 * p->m, "IPCP")) == NULL
        || fifo_bind(&p->regions, obj, S__regions, cap, "IPCP") < 0
        || (p->touched = state_array(v++, obj, S__region_touched, 'Q', cap, "IPCP")) == NULL
        || (p->last_offset = state_array(v++, obj, S__region_offset, 'b', cap, "IPCP")) == NULL
        || (p->direction = state_array(v++, obj, S__region_direction, 'b', cap, "IPCP")) == NULL
        || (p->counts = counter_array(v++, obj, IPCP_COUNT, "IPCP")) == NULL
        || (p->targets = mem_calloc(most, sizeof(int64_t))) == NULL)
        return -1;
    p->ip_last = ip;
    p->ip_stride = ip + p->n;
    p->ip_conf = ip + 2 * p->n;
    p->ip_sig = ip + 3 * p->n;
    p->cplx_stride = cplx;
    p->cplx_conf = cplx + p->m;
    return 0;
}

static int
ipcp_emit(IPCP *p, int64_t block, Py_ssize_t *count)
{
    return block_address(block, &p->targets[(*count)++]);
}

/* One access: region tracking, classification and training.  Leaves the
 * prefetch target addresses in p->targets; returns their count, or -1. */
static Py_ssize_t
ipcp_step(IPCP *p, int64_t pc, int64_t vaddr, int hit)
{
    int64_t key = py_mod(pc, p->n);
    int64_t block = vaddr >> 6, page = vaddr >> 12, offset = block & 63;
    Py_ssize_t r = index_find(&p->regions.index, page);
    if (r < 0) {
        r = fifo_push(&p->regions, page);
        p->touched[r] = 0;
        p->last_offset[r] = -1;
        p->direction[r] = 1;
    }
    if (p->last_offset[r] >= 0 && offset != p->last_offset[r])
        p->direction[r] = offset > p->last_offset[r] ? 1 : -1;
    p->last_offset[r] = (int8_t)offset;
    p->touched[r] |= (uint64_t)1 << offset;

    Py_ssize_t count = 0;
    int64_t last_block = p->ip_last[key], stride;
    if (last_block >= 0 && (stride = block - last_block) != 0) {
        int64_t last_stride = p->ip_stride[key];
        int64_t confidence = p->ip_conf[key];
        int64_t signature = p->ip_sig[key];
        int64_t m = p->m, target;
        if (stride == last_stride && confidence >= p->cs_threshold) {
            p->counts[IPCP_cs]++;
            target = block;
            for (long long k = 0; k < p->cs_degree; k++) {
                if (add_checked(target, stride, &target) < 0
                    || (target > 0 && ipcp_emit(p, target, &count) < 0))
                    return -1;
            }
        }
        else if ((double)__builtin_popcountll(p->touched[r]) / 64.0 >= p->gs_density) {
            p->counts[IPCP_gs]++;
            target = block;
            for (long long k = 0; k < p->gs_degree; k++) {
                if (add_checked(target, p->direction[r], &target) < 0
                    || (target > 0 && ipcp_emit(p, target, &count) < 0))
                    return -1;
            }
        }
        else if (p->cplx_conf[py_mod(signature, m)] >= 2) {
            p->counts[IPCP_cplx]++;
            target = block;
            uint64_t chained = (uint64_t)signature;
            for (long long k = 0; k < p->cplx_degree; k++) {
                int64_t ckey = py_mod((int64_t)chained, m);
                if (p->cplx_conf[ckey] < 2)
                    break;
                int64_t chained_stride = p->cplx_stride[ckey];
                if (add_checked(target, chained_stride, &target) < 0)
                    return -1;
                if (target <= 0)
                    break;
                if (ipcp_emit(p, target, &count) < 0)
                    return -1;
                chained = ((chained << 3) ^ ((uint64_t)chained_stride & 0x3F)) & 0xFFF;
            }
        }
        else {
            p->counts[IPCP_none]++;
        }

        /* Training: stride confidence, then the CPLX entry of the previous
         * signature, then the signature itself. */
        if (stride == last_stride) {
            if (confidence < 3)
                p->ip_conf[key] = confidence + 1;
        }
        else if (confidence > 0) {
            p->ip_conf[key] = confidence - 1;
        }
        int64_t tkey = py_mod(signature, m), tconf = p->cplx_conf[tkey];
        if (tconf == 0) {
            p->cplx_stride[tkey] = stride;
            p->cplx_conf[tkey] = 1;
        }
        else if (p->cplx_stride[tkey] != stride) {
            tconf--;
            if (tconf == 0) {
                p->cplx_stride[tkey] = stride;
                p->cplx_conf[tkey] = 1;
            }
            else {
                p->cplx_conf[tkey] = tconf;
            }
        }
        else if (tconf < 3) {
            p->cplx_conf[tkey] = tconf + 1;
        }
        p->ip_sig[key] =
            (int64_t)((((uint64_t)signature << 3) ^ ((uint64_t)stride & 0x3F)) & 0xFFF);
        p->ip_stride[key] = stride;
    }

    if (count == 0 && !hit) {
        /* NL: a miss no other class covered falls back to next-line. */
        p->counts[IPCP_nl]++;
        int64_t target = block;
        for (long long k = 0; k < p->nl_degree; k++) {
            if (add_checked(target, 1, &target) < 0 || ipcp_emit(p, target, &count) < 0)
                return -1;
        }
    }
    p->ip_last[key] = block;
    return count;
}

static void
ipcp_release(IPCP *p)
{
    for (int i = 0; i < 6; i++)
        view_release(&p->views[i]);
    fifo_release(&p->regions);
    PyMem_Free(p->targets);
    p->targets = NULL;
}

/* ------------------------------------------------------------------ */
/* Berti (repro.prefetchers.berti.BertiPrefetcher._step)                */
/* ------------------------------------------------------------------ */

/* Deltas between blocks of one 4KB page lie in -63..63. */
#define DELTA_SPAN 127

/* Per table entry, rows of shared flat tables (see berti.py): the current
 * page and observation total, the in-page offsets of the recent accesses,
 * the delta counters in SPP's pattern-table layout and the confirmed
 * deltas with their coverage. */
typedef struct {
    View views[10];
    int64_t *pages, *totals;
    int8_t *history, *order, *confirmed;
    uint8_t *history_len, *order_len, *confirmed_len;
    int32_t *counts;
    double *coverage;
    long long n, relearn, max_degree;
    double low;
    int64_t targets[DELTA_SPAN];
} Berti;

static int
in_range(const int8_t *values, int count, int lo, int hi)
{
    for (int i = 0; i < count; i++) {
        if (values[i] < lo || values[i] > hi)
            return 0;
    }
    return 1;
}

static int
berti_bind(Berti *b, PyObject *obj)
{
    if (get_ll(obj, S_table_entries, &b->n) < 0
        || get_ll(obj, S_relearn_interval, &b->relearn) < 0
        || get_ll(obj, S_max_prefetch_degree, &b->max_degree) < 0
        || get_double(obj, S_low_coverage, &b->low) < 0)
        return -1;
    if (b->n < 1) {
        PyErr_SetString(PyExc_ValueError, "Berti needs at least one table entry");
        return -1;
    }
    View *v = b->views;
    Py_ssize_t n = b->n, rows = b->n * DELTA_SPAN;
    if ((b->pages = state_array(v++, obj, S__pages, 'q', n, "Berti")) == NULL
        || (b->totals = state_array(v++, obj, S__totals, 'q', n, "Berti")) == NULL
        || (b->history = state_array(v++, obj, S__history, 'b', n * BertiHistoryDepth,
                                     "Berti")) == NULL
        || (b->history_len = state_array(v++, obj, S__history_lengths, 'B', n, "Berti")) == NULL
        || (b->counts = state_array(v++, obj, S__delta_counts, 'i', rows, "Berti")) == NULL
        || (b->order = state_array(v++, obj, S__delta_order, 'b', rows, "Berti")) == NULL
        || (b->order_len = state_array(v++, obj, S__delta_lengths, 'B', n, "Berti")) == NULL
        || (b->confirmed = state_array(v++, obj, S__confirmed_deltas, 'b', rows, "Berti")) == NULL
        || (b->coverage = state_array(v++, obj, S__confirmed_coverage, 'd', rows, "Berti")) == NULL
        || (b->confirmed_len = state_array(v++, obj, S__confirmed_lengths, 'B', n, "Berti")) == NULL)
        return -1;
    /* Every length, offset and delta is used as an index. */
    for (Py_ssize_t key = 0; key < n; key++) {
        int ok = b->history_len[key] <= BertiHistoryDepth && b->order_len[key] < DELTA_SPAN
                 && b->confirmed_len[key] < DELTA_SPAN
                 && in_range(b->history + key * BertiHistoryDepth, b->history_len[key], 0, 63)
                 && in_range(b->order + key * DELTA_SPAN, b->order_len[key], -63, 63)
                 && in_range(b->confirmed + key * DELTA_SPAN, b->confirmed_len[key], -63, 63);
        if (!ok) {
            PyErr_SetString(PyExc_ValueError, "Berti state out of range");
            return -1;
        }
    }
    return 0;
}

/* _promote_deltas: the confirmed deltas from the counters, then aging. */
static void
berti_promote(Berti *b, int64_t key, int64_t total)
{
    int32_t *counts = b->counts + key * DELTA_SPAN;
    int8_t *order = b->order + key * DELTA_SPAN, *deltas = b->confirmed + key * DELTA_SPAN;
    double *coverage = b->coverage + key * DELTA_SPAN;
    int len = b->order_len[key], kept = 0;
    if (total > 0) {
        for (int i = 0; i < len; i++) {
            double share = (double)counts[order[i] + 63] / (double)total;
            if (share >= b->low) {
                deltas[kept] = order[i];
                coverage[kept++] = share < 1.0 ? share : 1.0;
            }
        }
    }
    /* Stable sort by descending coverage. */
    for (int i = 1; i < kept; i++) {
        int8_t delta = deltas[i];
        double share = coverage[i];
        int j = i;
        for (; j > 0 && coverage[j - 1] < share; j--) {
            deltas[j] = deltas[j - 1];
            coverage[j] = coverage[j - 1];
        }
        deltas[j] = delta;
        coverage[j] = share;
    }
    b->confirmed_len[key] = (uint8_t)kept;
    /* Halve each count, dropping the deltas that reach 0. */
    kept = 0;
    for (int i = 0; i < len; i++) {
        int32_t *count = &counts[order[i] + 63];
        *count /= 2;
        if (*count)
            order[kept++] = order[i];
    }
    b->order_len[key] = (uint8_t)kept;
    b->totals[key] = py_half(total);
}

/* One access; leaves the target addresses in b->targets and returns their
 * count, or -1. */
static Py_ssize_t
berti_step(Berti *b, int64_t pc, int64_t vaddr)
{
    int64_t key = py_mod(pc, b->n), block = vaddr >> 6, page = vaddr >> 12;
    int8_t offset = (int8_t)(block & 63), *history = b->history + key * BertiHistoryDepth;
    if (b->pages[key] != page) {
        /* New page for this PC: the local-delta history restarts. */
        b->pages[key] = page;
        b->history_len[key] = 0;
    }
    int64_t total = b->totals[key];
    int len = b->history_len[key];
    if (len) {
        int32_t *counts = b->counts + key * DELTA_SPAN;
        int8_t *order = b->order + key * DELTA_SPAN;
        uint64_t seen[2] = {0, 0};
        for (int i = 0; i < len; i++) {
            int delta = offset - history[i];
            if (delta == 0)
                continue;
            int at = delta + 63;
            if ((seen[at >> 6] >> (at & 63)) & 1)
                continue;
            seen[at >> 6] |= (uint64_t)1 << (at & 63);
            if (counts[at]++ == 0)
                order[b->order_len[key]++] = (int8_t)delta;
        }
        total += 1;
    }
    if (len == BertiHistoryDepth) {
        memmove(history, history + 1, len - 1);
        history[len - 1] = offset;
    }
    else {
        history[len] = offset;
        b->history_len[key] = (uint8_t)(len + 1);
    }
    if (total >= b->relearn)
        berti_promote(b, key, total);
    else
        b->totals[key] = total;

    /* confirmed[:max_prefetch_degree] */
    const int8_t *confirmed = b->confirmed + key * DELTA_SPAN;
    long long len_confirmed = b->confirmed_len[key];
    long long limit = b->max_degree >= 0 ? b->max_degree : len_confirmed + b->max_degree;
    if (limit > len_confirmed)
        limit = len_confirmed;
    Py_ssize_t count = 0;
    for (long long i = 0; i < limit; i++) {
        int64_t target = block + confirmed[i];
        if (target > 0 && block_address(target, &b->targets[count++]) < 0)
            return -1;
    }
    return count;
}

static void
berti_release(Berti *b)
{
    for (int i = 0; i < 10; i++)
        view_release(&b->views[i]);
}

/* ------------------------------------------------------------------ */
/* SPP (repro.prefetchers.spp.SPPPrefetcher.step)                       */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t block, signature, delta, depth;
    int fill_l2;
    double confidence;
} Prediction;

/* SPPPrefetcher's signature FIFO and pattern table, used in place. */
typedef struct {
    View views[8];
    uint8_t *counts, *lengths, *totals, *best_count; /* best_count 0: no memo */
    int8_t *deltas, *best_delta;
    long long m, max_depth;
    double lookahead_confidence, l2_fill_confidence;
    Fifo signatures; /* the page FIFO */
    int64_t *packed; /* per signature slot: (signature << 6) | offset */
    int64_t *counters;
    Prediction *predictions;
} SPP;

static int
spp_bind(SPP *p, PyObject *obj)
{
    long long cap;
    if (get_ll(obj, S_signature_table_entries, &cap) < 0
        || get_ll(obj, S_pattern_table_entries, &p->m) < 0
        || get_ll(obj, S_max_lookahead_depth, &p->max_depth) < 0
        || get_double(obj, S_lookahead_confidence, &p->lookahead_confidence) < 0
        || get_double(obj, S_l2_fill_confidence, &p->l2_fill_confidence) < 0)
        return -1;
    if (cap < 1 || p->m < 1) {
        PyErr_SetString(PyExc_ValueError, "SPP tables must have at least one entry");
        return -1;
    }
    View *v = p->views;
    Py_ssize_t cells = p->m * DELTA_SPAN;
    if ((p->counts = state_array(v++, obj, S__pattern_counts, 'B', cells, "SPP")) == NULL
        || (p->deltas = state_array(v++, obj, S__pattern_deltas, 'b', cells, "SPP")) == NULL
        || (p->lengths = state_array(v++, obj, S__pattern_lengths, 'B', p->m, "SPP")) == NULL
        || (p->totals = state_array(v++, obj, S__pattern_totals, 'B', p->m, "SPP")) == NULL
        || (p->best_delta = state_array(v++, obj, S__pattern_best_delta, 'b', p->m, "SPP")) == NULL
        || (p->best_count = state_array(v++, obj, S__pattern_best_count, 'B', p->m, "SPP")) == NULL
        || (p->packed = state_array(v++, obj, S__signature_packed, 'q', cap, "SPP")) == NULL
        || (p->counters = counter_array(v++, obj, SPP_COUNT, "SPP")) == NULL
        || fifo_bind(&p->signatures, obj, S__signatures, cap, "SPP") < 0
        || (p->predictions = mem_calloc(p->max_depth, sizeof(Prediction))) == NULL)
        return -1;
    /* Every length and delta is used as an index. */
    for (Py_ssize_t key = 0; key < p->m; key++) {
        if (p->lengths[key] >= DELTA_SPAN
            || !in_range(p->deltas + key * DELTA_SPAN, p->lengths[key], -63, 63)) {
            PyErr_SetString(PyExc_ValueError, "SPP state out of range");
            return -1;
        }
    }
    return 0;
}

static inline uint64_t
spp_signature(uint64_t signature, int64_t delta)
{
    return ((signature << 3) ^ ((uint64_t)delta & 0x7F)) & 0xFFF;
}

/* Observe one L2 access (by block address) and predict ahead; leaves the
 * predictions in p->predictions and returns their count. */
static Py_ssize_t
spp_step(SPP *p, int64_t block)
{
    int64_t page = block >> 6, offset = block & 0x3F;
    Py_ssize_t slot = index_find(&p->signatures.index, page);
    if (slot < 0) {
        p->packed[fifo_push(&p->signatures, page)] = offset; /* signature 0 */
        return 0;
    }
    int64_t packed = p->packed[slot];
    int64_t delta = offset - (packed & 0x3F);
    if (delta == 0)
        return 0;
    uint64_t signature = (uint64_t)(packed >> 6);

    /* Train the previous signature's entry with the observed delta. */
    int64_t m = p->m, key = py_mod((int64_t)signature, m), total = p->totals[key] + 1;
    uint8_t *counts = p->counts + key * DELTA_SPAN;
    int8_t *deltas = p->deltas + key * DELTA_SPAN;
    if (counts[delta + 63]++ == 0)
        deltas[p->lengths[key]++] = (int8_t)delta;
    if (total >= 64) {
        /* Periodically halve the counters so stale deltas fade away. */
        int kept = 0;
        total = 0;
        for (int i = 0; i < p->lengths[key]; i++) {
            uint8_t *count = &counts[deltas[i] + 63];
            *count /= 2;
            if (*count) {
                deltas[kept++] = deltas[i];
                total += *count;
            }
        }
        p->lengths[key] = (uint8_t)kept;
    }
    p->best_count[key] = 0;
    p->totals[key] = (uint8_t)total;
    signature = spp_signature(signature, delta);
    p->packed[slot] = (int64_t)((signature << 6) | (uint64_t)offset);

    /* Lookahead along the signature path. */
    Py_ssize_t count = 0;
    double path_confidence = 1.0;
    int64_t predicted = block;
    for (long long depth = 0; depth < p->max_depth; depth++) {
        key = py_mod((int64_t)signature, m);
        if ((total = p->totals[key]) == 0)
            break;
        if (p->best_count[key] == 0) {
            /* The first maximal count in insertion order. */
            counts = p->counts + key * DELTA_SPAN;
            deltas = p->deltas + key * DELTA_SPAN;
            for (int i = 0; i < p->lengths[key]; i++) {
                if (counts[deltas[i] + 63] > p->best_count[key]) {
                    p->best_count[key] = counts[deltas[i] + 63];
                    p->best_delta[key] = deltas[i];
                }
            }
        }
        int64_t predicted_delta = p->best_delta[key];
        path_confidence *= (double)p->best_count[key] / (double)total;
        if (path_confidence < p->lookahead_confidence)
            break;
        predicted += predicted_delta;
        if (predicted <= 0)
            break;
        Prediction *out = &p->predictions[count++];
        out->block = predicted;
        out->fill_l2 = path_confidence >= p->l2_fill_confidence;
        out->signature = (int64_t)signature;
        out->delta = predicted_delta;
        out->depth = depth;
        out->confidence = path_confidence;
        if (depth > 0)
            p->counters[SPP_lookahead_prefetches]++;
        signature = spp_signature(signature, predicted_delta);
    }
    return count;
}

static void
spp_release(SPP *p)
{
    for (int i = 0; i < 8; i++)
        view_release(&p->views[i]);
    fifo_release(&p->signatures);
    PyMem_Free(p->predictions);
    p->predictions = NULL;
}

/* ------------------------------------------------------------------ */
/* PPF (PerceptronPrefetchFilter.consult_step)                         */
/* ------------------------------------------------------------------ */

#define PPF_FEATURES 9

typedef struct {
    Perceptron p;
    View counts_view;
    int64_t *counts;
} PPF;

static int
ppf_bind(PPF *p, PyObject *obj)
{
    if (perceptron_bind(&p->p, obj, PPF_FEATURES) < 0
        || (p->counts = counter_array(&p->counts_view, obj, PPF_COUNT, "PPF")) == NULL)
        return -1;
    return 0;
}

/* Score one SPP candidate: the weight-table indices go to ``indices``, the
 * confidence to ``*confidence``; returns the issue decision. */
static int
ppf_consult(PPF *p, int64_t pc, const Prediction *candidate, Py_ssize_t *indices,
            long long *confidence)
{
    p->counts[PPF_consultations]++;
    int64_t block = candidate->block, delta = candidate->delta;
    uint64_t offset = (uint64_t)block & 63;
    double bucket = candidate->confidence > 0.0 ? candidate->confidence : 0.0;
    bucket = bucket < 0.999 ? bucket : 0.999;
    uint64_t values[PPF_FEATURES] = {
        (uint64_t)pc,
        (uint64_t)pc ^ ((uint64_t)candidate->depth << 5),
        (uint64_t)block,
        offset,
        hash_pair((uint64_t)(block >> 6), (uint64_t)delta),
        hash_pair((uint64_t)candidate->signature, (uint64_t)delta),
        (uint64_t)(int64_t)(bucket * 8),
        (uint64_t)pc ^ offset,
        (uint64_t)delta & 0xFFF,
    };
    for (int f = 0; f < PPF_FEATURES; f++)
        indices[f] = table_slot(values[f], p->p.bits[f], p->p.entries[f]);
    long long total = perceptron_predict(&p->p, indices);
    *confidence = total;
    int issue = total >= p->p.threshold;
    p->counts[issue ? PPF_accepted : PPF_rejected]++;
    return issue;
}

static void
ppf_release(PPF *p)
{
    perceptron_release(&p->p);
    view_release(&p->counts_view);
}

/* ------------------------------------------------------------------ */
/* Feature history (repro.predictors.features.FeatureHistory)          */
/* ------------------------------------------------------------------ */

/* The Table I features, shared by FLP (virtual addresses) and SLP
 * (physical addresses). */
#define NUM_FEATURES 5

/* A FeatureHistory's page buffer (an LRU set of pages: shared keys, last-use
 * stamps and clock, with a private recency list) and its last PCs. */
typedef struct {
    View views[5];
    KeyIndex pages;
    int64_t *stamps, *clock;
    Py_ssize_t cap, fill;                /* occupied slots: a prefix of ``fill`` */
    Py_ssize_t *prev, *next, head, tail; /* occupied slots, least recent first */
    int64_t *pcs, *npcs;                 /* the last PCs, oldest first; their count */
    Py_ssize_t pc_window;
} History;

typedef struct {
    int64_t stamp;
    Py_ssize_t slot;
} Use;

static int
use_order(const void *a, const void *b)
{
    const Use *x = a, *y = b;
    if (x->stamp != y->stamp)
        return x->stamp < y->stamp ? -1 : 1;
    return (x->slot > y->slot) - (x->slot < y->slot);
}

static inline void
lru_link_tail(History *h, Py_ssize_t slot)
{
    h->prev[slot] = h->tail;
    h->next[slot] = -1;
    if (h->tail >= 0)
        h->next[h->tail] = slot;
    else
        h->head = slot;
    h->tail = slot;
}

static inline void
lru_unlink(History *h, Py_ssize_t slot)
{
    Py_ssize_t before = h->prev[slot], after = h->next[slot];
    if (before >= 0)
        h->next[before] = after;
    else
        h->head = after;
    if (after >= 0)
        h->prev[after] = before;
    else
        h->tail = before;
}

/* Bind a FeatureHistory's arrays (in place) and order its occupied slots
 * by last use. */
static int
history_bind(History *h, PyObject *obj)
{
    long long cap;
    if (get_ll(obj, S_page_buffer_entries, &cap) < 0)
        return -1;
    if (cap < 1) {
        PyErr_SetString(PyExc_ValueError, "the page buffer needs at least one entry");
        return -1;
    }
    View *v = h->views;
    int64_t *keys;
    if ((keys = state_array(v++, obj, S__pages, 'q', cap, "feature history")) == NULL
        || (h->stamps = state_array(v++, obj, S__stamps, 'q', cap, "feature history")) == NULL
        || (h->clock = state_array(v++, obj, S__clock, 'q', 1, "feature history")) == NULL
        || (h->npcs = state_array(v++, obj, S__pc_count, 'q', 1, "feature history")) == NULL
        || (h->pcs = state_array(v, obj, S__pcs, 'q', -1, "feature history")) == NULL
        || index_init(&h->pages, keys, (Py_ssize_t)cap, "feature history") < 0)
        return -1;
    h->pc_window = v->view.shape[0];
    h->cap = (Py_ssize_t)cap;
    for (h->fill = 0; h->fill < h->cap && keys[h->fill] != -1; h->fill++)
        ;
    for (Py_ssize_t slot = h->fill; slot < h->cap; slot++) {
        if (keys[slot] != -1) {
            PyErr_SetString(PyExc_ValueError, "page buffer slots in use are not a prefix");
            return -1;
        }
    }
    if (*h->npcs < 0 || *h->npcs > h->pc_window) {
        PyErr_SetString(PyExc_ValueError, "PC history count out of range");
        return -1;
    }
    Use *uses = mem_calloc(h->fill, sizeof(Use));
    if (uses == NULL || (h->prev = mem_calloc(h->cap, sizeof(Py_ssize_t))) == NULL
        || (h->next = mem_calloc(h->cap, sizeof(Py_ssize_t))) == NULL) {
        PyMem_Free(uses);
        return -1;
    }
    for (Py_ssize_t slot = 0; slot < h->fill; slot++)
        uses[slot] = (Use){h->stamps[slot], slot};
    qsort(uses, (size_t)h->fill, sizeof(Use), use_order);
    h->head = h->tail = -1;
    for (Py_ssize_t i = 0; i < h->fill; i++)
        lru_link_tail(h, uses[i].slot);
    PyMem_Free(uses);
    return 0;
}

/* The Table I feature values of an access at (pc, addr), as the extractors
 * compute them from FeatureHistory.context, then FeatureHistory.observe. */
static void
history_step(History *h, int64_t pc, int64_t addr, uint64_t *values)
{
    int64_t page = addr >> 12;
    Py_ssize_t slot = index_find(&h->pages, page), npcs = (Py_ssize_t)*h->npcs;
    uint64_t first = slot < 0, offset = ((uint64_t)addr >> 6) & 63;
    uint64_t pcs_hash = 0;
    if (npcs) {
        pcs_hash = 0x9E3779B9ull;
        for (Py_ssize_t i = 0; i < npcs; i++)
            pcs_hash = hash_step(pcs_hash, (uint64_t)h->pcs[i]);
    }
    values[0] = (uint64_t)pc ^ (offset << 2);
    values[1] = (uint64_t)pc ^ (((uint64_t)addr & 63) << 2);
    values[2] = hash_pair((uint64_t)pc, first);
    values[3] = hash_pair(offset, first);
    values[4] = pcs_hash;

    if (slot >= 0) {
        lru_unlink(h, slot);
    }
    else {
        /* The first free slot, else the least recently used page's. */
        if (h->fill < h->cap) {
            slot = h->fill++;
        }
        else {
            slot = h->head;
            lru_unlink(h, slot);
            index_remove(&h->pages, slot);
        }
        h->pages.keys[slot] = page;
        index_add(&h->pages, slot);
    }
    lru_link_tail(h, slot);
    h->stamps[slot] = ++*h->clock;
    if (npcs < h->pc_window) {
        h->pcs[npcs] = pc;
        *h->npcs = npcs + 1;
    }
    else if (npcs) {
        memmove(h->pcs, h->pcs + 1, (npcs - 1) * sizeof(int64_t));
        h->pcs[npcs - 1] = pc;
    }
}

static void
history_release(History *h)
{
    for (int i = 0; i < 5; i++)
        view_release(&h->views[i]);
    index_free(&h->pages);
    PyMem_Free(h->prev);
    PyMem_Free(h->next);
    h->prev = h->next = NULL;
}

/* ------------------------------------------------------------------ */
/* SLP (SecondLevelPerceptron.consult_step)                            */
/* ------------------------------------------------------------------ */

#define SLP_FEATURES (NUM_FEATURES + 1)

typedef struct {
    Perceptron p;
    History history;
    double tau_pref;
    int leveling;
    View counts_view;
    int64_t *counts;
} SLP;

static int
slp_bind(SLP *s, PyObject *obj)
{
    if (perceptron_bind(&s->p, obj, SLP_FEATURES) < 0
        || get_double(obj, S_tau_pref, &s->tau_pref) < 0
        || get_truth(obj, S_use_leveling_feature, &s->leveling) < 0
        || (s->counts = counter_array(&s->counts_view, obj, SLP_COUNT, "SLP")) == NULL)
        return -1;
    PyObject *history = PyObject_GetAttr(obj, S_history);
    if (history == NULL)
        return -1;
    int rc = history_bind(&s->history, history);
    Py_DECREF(history);
    return rc;
}

/* Score one L1D prefetch candidate at physical address ``paddr``, then
 * observe it: the indices go to ``indices``, the confidence to
 * ``*confidence``; returns the issue decision. */
static int
slp_consult(SLP *s, int64_t pc, int64_t paddr, int trigger_prediction, Py_ssize_t *indices,
            long long *confidence)
{
    s->counts[SLP_consultations]++;
    uint64_t values[SLP_FEATURES];
    history_step(&s->history, pc, paddr, values);
    values[NUM_FEATURES] = hash_pair(s->leveling && trigger_prediction,
                                     ((uint64_t)paddr >> 6) & 63);
    Perceptron *p = &s->p;
    for (int f = 0; f < SLP_FEATURES; f++)
        indices[f] = table_slot(values[f], p->bits[f], p->entries[f]);
    long long total = perceptron_predict(p, indices);
    *confidence = total;
    int issue = (double)total < s->tau_pref;
    s->counts[issue ? SLP_issued : SLP_discarded]++;
    return issue;
}

static void
slp_release(SLP *s)
{
    perceptron_release(&s->p);
    history_release(&s->history);
    view_release(&s->counts_view);
}

/* ------------------------------------------------------------------ */
/* Page table (repro.memory.paging.PageTable)                          */
/* ------------------------------------------------------------------ */

/* The page table's Python containers, and a C table of the mappings seen so
 * far (open addressing, linear probing; frame -1 marks a free slot).  A
 * mapping is never removed or changed, so the C table cannot go stale. */
typedef struct {
    PyObject *mapping, *allocated; /* _mapping, _allocated_frames */
    View counts_view;
    int64_t *counts;
    long long core_id, memory_frames;
    int64_t *vpages, *frames;
    size_t mask, count;
} PageTable;

static inline size_t
frames_home(const PageTable *t, int64_t vpage)
{
    return (size_t)(((uint64_t)vpage * 0x9E3779B97F4A7C15ull) >> 32) & t->mask;
}

/* The cached frame of ``vpage``, or -1. */
static inline int64_t
frames_find(const PageTable *t, int64_t vpage)
{
    for (size_t i = frames_home(t, vpage);; i = (i + 1) & t->mask) {
        if (t->frames[i] < 0 || t->vpages[i] == vpage)
            return t->frames[i];
    }
}

static int
frames_alloc(PageTable *t, size_t size)
{
    t->vpages = mem_calloc((Py_ssize_t)size, sizeof(int64_t));
    t->frames = mem_calloc((Py_ssize_t)size, sizeof(int64_t));
    if (t->vpages == NULL || t->frames == NULL)
        return -1;
    memset(t->frames, 0xff, size * sizeof(int64_t));
    t->mask = size - 1;
    t->count = 0;
    return 0;
}

static void
page_table_release(PageTable *t)
{
    PyMem_Free(t->vpages);
    PyMem_Free(t->frames);
    t->vpages = t->frames = NULL;
    view_release(&t->counts_view);
}

static inline void
frames_put(PageTable *t, int64_t vpage, int64_t frame)
{
    size_t i = frames_home(t, vpage);
    while (t->frames[i] >= 0)
        i = (i + 1) & t->mask;
    t->vpages[i] = vpage;
    t->frames[i] = frame;
    t->count++;
}

/* Cache an absent mapping, doubling the table at half load. */
static int
frames_add(PageTable *t, int64_t vpage, int64_t frame)
{
    if (2 * (t->count + 1) > t->mask + 1) {
        int64_t *vpages = t->vpages, *frames = t->frames;
        size_t size = t->mask + 1;
        int rc = frames_alloc(t, 2 * size);
        for (size_t i = 0; rc == 0 && i < size; i++) {
            if (frames[i] >= 0)
                frames_put(t, vpages[i], frames[i]);
        }
        PyMem_Free(vpages);
        PyMem_Free(frames);
        if (rc < 0)
            return -1;
    }
    frames_put(t, vpage, frame);
    return 0;
}

static int
page_table_init(PageTable *t, PyObject *obj)
{
    if ((t->mapping = PyObject_GetAttr(obj, S__mapping)) == NULL
        || (t->allocated = PyObject_GetAttr(obj, S__allocated_frames)) == NULL
        || get_ll(obj, S_core_id, &t->core_id) < 0
        || get_ll(obj, S_memory_frames, &t->memory_frames) < 0
        || (t->counts = counter_array(&t->counts_view, obj, PT_COUNT, "page table")) == NULL)
        return -1;
    if (!PyDict_CheckExact(t->mapping) || !PySet_CheckExact(t->allocated)
        || t->memory_frames <= 0) {
        PyErr_SetString(PyExc_TypeError, "page table outside the modelled shape");
        return -1;
    }
    return frames_alloc(t, 1024);
}

/* ------------------------------------------------------------------ */
/* The stepper                                                         */
/* ------------------------------------------------------------------ */

enum { PK_NULL = 0, PK_FLP = 1 };
/* L1D prefetcher kernels. */
enum { PF_NONE = 0, PF_IPCP = 1, PF_BERTI = 2 };
enum { LEVEL_L1D = 0, LEVEL_L2C = 1, LEVEL_LLC = 2, LEVEL_DRAM = 3 };

/* Bits of a cache slot's flags byte (repro.memory.cache). */
enum { F_DIRTY = 1, F_PREFETCHED = 2, F_USEFUL = 4, F_PENDING = 8 };

/* One cache level: its flat state arrays, used in place. */
typedef struct {
    PyObject *listener;
    View views[8];
    int64_t *tags, *stamps, *ready, *set_fill, *clock;
    uint8_t *flags;
    int8_t *source;
    int64_t *counts; /* the CacheStats */
    int level;
    long long num_sets, ways, latency;
} CacheState;

#define STEPPER_OBJECTS(X)                                                    \
    X(runner) X(hierarchy) X(sample_hook) X(resolve_l2) X(pending_l2c)        \
    X(predictor) X(dram) X(retire_deque) X(prefetcher) X(l2_prefetcher)       \
    X(l1_filter) X(l2_filter)

typedef struct {
    PyObject_HEAD
#define DECLARE_FIELD(n) PyObject *n;
    STEPPER_OBJECTS(DECLARE_FIELD)
#undef DECLARE_FIELD
    CacheState l1, l2, llc;

    /* Trace columns (held for the stepper's lifetime). */
    Py_buffer pc_buf, vaddr_buf, kind_buf;
    int have_columns;
    const int64_t *pcs, *vaddrs;
    const uint8_t *kinds;
    Py_ssize_t total, pos;
    int kind_non_mem;

    PageTable pages;

    /* Off-chip predictor: weight tables and feature history. */
    int predictor_kind;
    Perceptron flp;
    History history;
    double tau_high, tau_low;
    int selective_delay, last_prediction;

    /* Prefetchers and filters the kernel runs itself. */
    int prefetch_kind, have_spp, have_ppf, have_slp;
    IPCP ipcp;
    Berti berti;
    SPP spp;
    PPF ppf;
    SLP slp;

    /* Hierarchy constants and the DRAM channel. */
    long long predictor_latency, dram_access_latency;
    double cycles_per_transaction, drop_cycles;
    View busy_view;
    double *busy_until; /* dram._busy_until, in place */

    /* The counters of the hierarchy's and the DRAM channel's stats and of
     * FLP's decisions, in place. */
    View counter_views[3];
    int64_t *hstats, *dram_stats, *flp_counts;

    /* Core timing: the ROB's retire times as a ring buffer. */
    double *retire;
    Py_ssize_t retire_cap, retire_head, retire_len, rob_size;
    double dispatch_interval, dispatch_cycle, last_retire;
    long long base_instructions, instructions, loads, stores;
    double total_load_latency;
    int pending; /* a load/store at ``pos`` was yielded, not yet performed */
    double pending_dispatch;
    int finished;

    /* Sampling: the hook runs after load/store number next_sample. */
    long long sample_interval, next_sample;
} Stepper;

/* ------------------------------------------------------------------ */
/* One cache level                                                     */
/* ------------------------------------------------------------------ */

static int
cache_init(CacheState *c, PyObject *cache, int level)
{
    c->level = level;
    if ((c->listener = PyObject_GetAttr(cache, S__eviction_listener)) == NULL)
        return -1;
    if (c->listener == Py_None)
        Py_CLEAR(c->listener);
    if (get_ll(cache, S_num_sets, &c->num_sets) < 0
        || get_ll(cache, S_associativity, &c->ways) < 0
        || get_ll(cache, S_latency, &c->latency) < 0)
        return -1;
    if (c->num_sets < 1 || c->ways < 1) {
        PyErr_SetString(PyExc_ValueError, "cache geometry must be positive");
        return -1;
    }
    Py_ssize_t slots = c->num_sets * c->ways;
    View *v = c->views;
    if ((c->tags = state_array(v++, cache, S__tags, 'q', slots, "cache")) == NULL
        || (c->stamps = state_array(v++, cache, S__stamps, 'q', slots, "cache")) == NULL
        || (c->ready = state_array(v++, cache, S__ready, 'q', slots, "cache")) == NULL
        || (c->flags = state_array(v++, cache, S__flags, 'B', slots, "cache")) == NULL
        || (c->source = state_array(v++, cache, S__source, 'b', slots, "cache")) == NULL
        || (c->set_fill = state_array(v++, cache, S__set_fill, 'q', c->num_sets, "cache")) == NULL
        || (c->clock = state_array(v++, cache, S__clock, 'q', 1, "cache")) == NULL
        || (c->counts = stats_array(v++, cache, C_COUNT, "cache")) == NULL)
        return -1;
    return 0;
}

static void
cache_release(CacheState *c)
{
    for (int i = 0; i < 8; i++)
        view_release(&c->views[i]);
}

/* The slot holding ``block`` (Cache.find), or -1. */
static inline Py_ssize_t
cache_find(const CacheState *c, long long block)
{
    Py_ssize_t set_idx = (Py_ssize_t)py_mod(block, c->num_sets);
    Py_ssize_t base = set_idx * c->ways, end = base + c->set_fill[set_idx];
    for (Py_ssize_t slot = base; slot < end; slot++) {
        if (c->tags[slot] == block)
            return slot;
    }
    return -1;
}

/* Demand lookup (Cache.lookup plus the ready-cycle wait of the walk).
 * Returns the hit slot, or -1 on a miss; *latency grows to the remaining
 * fill time of an in-flight block, *prefetch_hit reports a first demand use
 * of a prefetched block. */
static Py_ssize_t
cache_lookup(CacheState *c, long long block, long long cycle, int is_write,
             long long *latency, int *prefetch_hit)
{
    c->counts[C_demand_accesses]++;
    Py_ssize_t slot = cache_find(c, block);
    if (slot < 0) {
        c->counts[C_demand_misses]++;
        *prefetch_hit = 0;
        return -1;
    }
    c->counts[C_demand_hits]++;
    long long ready = c->ready[slot];
    if (ready > cycle && ready - cycle > *latency)
        *latency = ready - cycle;
    int flags = c->flags[slot];
    *prefetch_hit = (flags & (F_PREFETCHED | F_USEFUL)) == F_PREFETCHED;
    if (*prefetch_hit) {
        flags |= F_USEFUL;
        c->counts[C_prefetch_hits]++;
    }
    if (is_write)
        flags |= F_DIRTY;
    c->flags[slot] = (uint8_t)flags;
    c->stamps[slot] = ++*c->clock;
    return slot;
}

/* Count the L1D prefetch pending in ``slot`` as useful or useless under its
 * serve level and clear its bit (_resolve_l1d_prefetch_use and the L1D
 * eviction listener). */
static int
count_l1_prefetch(Stepper *s, Py_ssize_t slot, int useful)
{
    int level = s->l1.source[slot];
    if (level < LEVEL_L1D || level > LEVEL_DRAM) {
        PyErr_SetString(PyExc_ValueError, "pending L1D prefetch served by no level");
        return -1;
    }
    s->l1.flags[slot] &= (uint8_t)~F_PENDING;
    if (useful) {
        s->hstats[H_useful_l1d_prefetches]++;
        s->hstats[H_accurate_prefetch_source + level]++;
    }
    else {
        s->hstats[H_useless_l1d_prefetches]++;
        s->hstats[H_inaccurate_prefetch_source + level]++;
    }
    return 0;
}

/* Whether a PPF record is pending for ``key``. */
static int
l2_pending(Stepper *s, PyObject *key)
{
    return PyDict_GET_SIZE(s->pending_l2c) == 0 ? 0 : PyDict_Contains(s->pending_l2c, key);
}

/* _resolve_l2c_prefetch_use, called only when a PPF record is pending. */
static int
resolve_l2_prefetch(Stepper *s, long long block)
{
    PyObject *key = PyLong_FromLongLong(block);
    if (key == NULL)
        return -1;
    int rc = l2_pending(s, key);
    if (rc > 0)
        rc = discard(call1(s->resolve_l2, key));
    Py_DECREF(key);
    return rc;
}

/* The eviction listeners of the block in ``slot``: the L1D's is inlined
 * (a still-pending prefetch was useless), the L2C's Python one runs only
 * when it has a pending PPF record to train. */
static int
evicted(Stepper *s, CacheState *c, Py_ssize_t slot)
{
    if (c->listener == NULL)
        return 0;
    int flags = c->flags[slot];
    if (c->level == LEVEL_L1D)
        return flags & F_PENDING ? count_l1_prefetch(s, slot, 0) : 0;
    int was_prefetched = (flags & F_PREFETCHED) != 0, was_useful = (flags & F_USEFUL) != 0;
    if (c->level == LEVEL_L2C && (!was_prefetched || was_useful))
        return 0;
    PyObject *key = PyLong_FromLongLong(c->tags[slot]);
    if (key == NULL)
        return -1;
    int rc = c->level == LEVEL_L2C ? l2_pending(s, key) : 1;
    if (rc > 0) {
        PyObject *info = call4(EvictionInfoType, key, py_bool(was_prefetched),
                               py_bool(was_useful), py_bool(flags & F_DIRTY));
        rc = info == NULL ? -1 : discard(call1(c->listener, info));
        Py_XDECREF(info);
    }
    Py_DECREF(key);
    return rc;
}

/* Cache.fill for a fill that never sets ``dirty`` (every fill the kernel
 * drives); ``fill_flags`` is a new block's flags (0, F_PREFETCHED or
 * F_PREFETCHED | F_PENDING) and ``source`` the prefetch source level (-1
 * for None). */
static int
cache_fill(Stepper *s, CacheState *c, long long block, long long ready, int fill_flags,
           int source)
{
    int prefetched = (fill_flags & F_PREFETCHED) != 0;
    Py_ssize_t slot = cache_find(c, block);
    if (slot >= 0) {
        /* Fill races with an earlier fill of the same block: keep the
         * stronger attribution (a demand fill overrides prefetched). */
        if (!prefetched)
            c->flags[slot] &= (uint8_t)~F_PREFETCHED;
        if (ready < c->ready[slot])
            c->ready[slot] = ready;
        return 0;
    }
    Py_ssize_t set_idx = (Py_ssize_t)py_mod(block, c->num_sets);
    Py_ssize_t base = set_idx * c->ways;
    if (c->set_fill[set_idx] < c->ways) {
        slot = base + c->set_fill[set_idx]++;
    }
    else {
        /* The victim is the set's first least-recent stamp. */
        slot = base;
        for (Py_ssize_t i = base + 1; i < base + c->ways; i++) {
            if (c->stamps[i] < c->stamps[slot])
                slot = i;
        }
        int flags = c->flags[slot];
        c->counts[C_evictions]++;
        if (flags & F_DIRTY)
            c->counts[C_writebacks]++;
        if (flags & F_PREFETCHED)
            c->counts[flags & F_USEFUL ? C_useful_prefetch_evictions
                                       : C_useless_prefetch_evictions]++;
        if (evicted(s, c, slot) < 0)
            return -1;
    }
    c->tags[slot] = block;
    c->ready[slot] = ready;
    c->flags[slot] = (uint8_t)fill_flags;
    c->source[slot] = (int8_t)source;
    c->stamps[slot] = ++*c->clock;
    c->counts[prefetched ? C_prefetch_fills : C_demand_fills]++;
    return 0;
}

/* ------------------------------------------------------------------ */
/* DRAM and translation                                                */
/* ------------------------------------------------------------------ */

/* DRAMModel.access: one transaction issued at ``issue_at``, counted in
 * the DRAM counter ``source``; returns the latency until the data. */
static long long
dram_access(Stepper *s, long long issue_at, int source)
{
    double delay = *s->busy_until - (double)issue_at;
    if (delay < 0.0)
        delay = 0.0;
    *s->busy_until = (double)issue_at + delay + s->cycles_per_transaction;
    int64_t *counts = s->dram_stats;
    counts[D_total_transactions]++;
    counts[source]++;
    long long queue_cycles = (long long)delay;
    counts[D_total_queue_cycles] += queue_cycles;
    if (queue_cycles > counts[D_max_queue_cycles])
        counts[D_max_queue_cycles] = queue_cycles;
    return (long long)(delay + (double)s->dram_access_latency);
}

static inline int
dram_backed_up(Stepper *s, long long cycle)
{
    return *s->busy_until - (double)cycle > s->drop_cycles;
}

/* PageTable._allocate_frame for an unmapped ``vpage``: a hashed first
 * choice, linearly probed over the live allocated-frame set, written
 * through to the mapping, the set and the fault count. */
static int64_t
allocate_frame(PageTable *t, int64_t vpage, PyObject *vpage_obj)
{
    t->counts[PT_page_faults]++;
    int64_t candidate = py_mod(
        (int64_t)jenkins32(((uint64_t)vpage << 4) ^ ((uint64_t)t->core_id * 0x9E3779B1ull)),
        t->memory_frames);
    PyObject *frame_obj = NULL;
    for (long long probes = 0;; probes++) {
        if (probes > t->memory_frames) {
            PyErr_SetString(PyExc_RuntimeError, "physical memory exhausted");
            return -1;
        }
        if ((frame_obj = PyLong_FromLongLong(candidate)) == NULL)
            return -1;
        int taken = PySet_Contains(t->allocated, frame_obj);
        if (taken == 0)
            break;
        Py_DECREF(frame_obj);
        if (taken < 0)
            return -1;
        candidate = py_mod(candidate + 1, t->memory_frames);
    }
    int rc = PySet_Add(t->allocated, frame_obj) == 0
        && PyDict_SetItem(t->mapping, vpage_obj, frame_obj) == 0;
    Py_DECREF(frame_obj);
    return rc ? candidate : -1;
}

/* The frame of ``vpage``: cached, mapped by the Python page table (the
 * object-call prefetch path translates too), or newly allocated. */
static int64_t
page_frame(PageTable *t, int64_t vpage)
{
    int64_t frame = frames_find(t, vpage);
    if (frame >= 0)
        return frame;
    PyObject *vpage_obj = PyLong_FromLongLong(vpage);
    if (vpage_obj == NULL)
        return -1;
    PyObject *mapped = PyDict_GetItemWithError(t->mapping, vpage_obj);
    if (mapped != NULL) {
        long long value;
        frame = as_ll(mapped, &value) < 0 ? -1 : value;
    }
    else if (!PyErr_Occurred()) {
        frame = allocate_frame(t, vpage, vpage_obj);
    }
    Py_DECREF(vpage_obj);
    if (frame < 0 || frames_add(t, vpage, frame) < 0)
        return -1;
    return frame;
}

/* PageTable.translate: returns the physical address. */
static inline int
translate(Stepper *s, long long vaddr, long long *paddr)
{
    int64_t frame = page_frame(&s->pages, vaddr >> 12);
    if (frame < 0)
        return -1;
    *paddr = (frame << 12) | (vaddr & 4095);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Prefetch issue paths                                                */
/* ------------------------------------------------------------------ */

/* SPP observes an L2 access to ``block`` and its lookahead predictions are
 * issued (_run_l2_prefetcher + _issue_l2c_prefetch, filtered by PPF when
 * present). */
static int
spp_issue(Stepper *s, long long pc, long long block, long long cycle)
{
    Py_ssize_t n = spp_step(&s->spp, block);
    for (Py_ssize_t i = 0; i < n; i++) {
        const Prediction *prediction = &s->spp.predictions[i];
        long long pblock = prediction->block;
        Py_ssize_t indices[PPF_FEATURES];
        long long confidence = 0;
        s->hstats[H_l2c_prefetch_candidates]++;
        if (cache_find(&s->l2, pblock) >= 0) {
            s->hstats[H_l2c_prefetches_dropped_resident]++;
            continue;
        }
        if (s->have_ppf && !ppf_consult(&s->ppf, pc, prediction, indices, &confidence)) {
            s->hstats[H_l2c_prefetches_filtered]++;
            continue;
        }
        long long fill_latency = s->l2.latency + s->llc.latency;
        if (cache_find(&s->llc, pblock) < 0) {
            if (dram_backed_up(s, cycle)) {
                s->hstats[H_l2c_prefetches_dropped_queue_full]++;
                continue;
            }
            fill_latency += dram_access(s, cycle, D_l2c_prefetch_transactions);
            if (cache_fill(s, &s->llc, pblock, cycle + fill_latency, F_PREFETCHED,
                           LEVEL_DRAM) < 0)
                return -1;
        }
        s->hstats[H_l2c_prefetches_issued]++;
        if (prediction->fill_l2
            && cache_fill(s, &s->l2, pblock, cycle + fill_latency, F_PREFETCHED,
                          LEVEL_DRAM) < 0)
            return -1;
        if (s->have_ppf) {
            /* PPF training metadata travels as a raw (indices, confidence)
             * tuple; the eviction/use hooks hand it back to
             * PerceptronPrefetchFilter.train. */
            PyObject *list = PyList_New(PPF_FEATURES);
            for (int f = 0; list != NULL && f < PPF_FEATURES; f++) {
                PyObject *index = PyLong_FromSsize_t(indices[f]);
                if (index == NULL)
                    Py_CLEAR(list);
                else
                    PyList_SET_ITEM(list, f, index);
            }
            PyObject *metadata = list ? Py_BuildValue("(NL)", list, confidence) : NULL;
            PyObject *key = metadata ? PyLong_FromLongLong(pblock) : NULL;
            int set = key ? PyDict_SetItem(s->pending_l2c, key, metadata) : -1;
            Py_XDECREF(metadata);
            Py_XDECREF(key);
            if (set < 0)
                return -1;
        }
    }
    return 0;
}

/* One L1D prefetch target (_issue_l1d_prefetch + _fetch_for_prefetch,
 * filtered by SLP when present). */
static int
l1_prefetch_target(Stepper *s, long long tvaddr, long long pc, long long cycle)
{
    s->hstats[H_l1d_prefetch_candidates]++;
    long long tpaddr;
    if (translate(s, tvaddr, &tpaddr) < 0)
        return -1;
    long long tblock = tpaddr >> 6;
    Py_ssize_t indices[SLP_FEATURES];
    long long confidence = 0;
    if (cache_find(&s->l1, tblock) >= 0) {
        s->hstats[H_l1d_prefetches_dropped_resident]++;
        return 0;
    }
    if (s->have_slp
        && !slp_consult(&s->slp, pc, tpaddr, s->last_prediction, indices, &confidence)) {
        s->hstats[H_l1d_prefetches_filtered]++;
        return 0;
    }
    /* The L2 prefetcher observes the prefetch arriving from the level
     * above. */
    if (s->have_spp && cache_find(&s->l2, tblock) < 0 && spp_issue(s, pc, tblock, cycle) < 0)
        return -1;
    /* The L2 residency re-check matters: SPP may have just filled this
     * block into the L2. */
    int served;
    long long fetch_latency;
    if (cache_find(&s->l2, tblock) >= 0) {
        served = LEVEL_L2C;
        fetch_latency = s->l1.latency + s->l2.latency;
    }
    else if (cache_find(&s->llc, tblock) >= 0) {
        served = LEVEL_LLC;
        fetch_latency = s->l1.latency + s->l2.latency + s->llc.latency;
        if (cache_fill(s, &s->l2, tblock, cycle + fetch_latency, 0, -1) < 0)
            return -1;
    }
    else {
        if (dram_backed_up(s, cycle)) {
            s->hstats[H_l1d_prefetches_dropped_queue_full]++;
            return 0;
        }
        served = LEVEL_DRAM;
        fetch_latency = s->l1.latency + s->l2.latency + s->llc.latency
                        + dram_access(s, cycle, D_l1d_prefetch_transactions);
        long long ready = cycle + fetch_latency;
        if (cache_fill(s, &s->llc, tblock, ready, 0, -1) < 0
            || cache_fill(s, &s->l2, tblock, ready, 0, -1) < 0)
            return -1;
    }
    s->hstats[H_l1d_prefetches_issued]++;
    s->hstats[H_l1d_prefetch_served_by + served]++;
    /* The block stays pending until its first demand use or eviction. */
    if (cache_fill(s, &s->l1, tblock, cycle + fetch_latency, F_PREFETCHED | F_PENDING,
                   served) < 0)
        return -1;
    /* on_fill is the L1DPrefetcher base no-op for IPCP/Berti; SLP trains as
     * soon as the serve level is known. */
    if (s->have_slp)
        perceptron_train(&s->slp.p, indices, served == LEVEL_DRAM, confidence);
    return 0;
}

/* The L1D prefetcher observes a demand access and its targets are issued. */
static int
l1_prefetch(Stepper *s, long long pc, long long vaddr, int l1d_hit, long long cycle)
{
    const int64_t *targets;
    Py_ssize_t n;
    if (s->prefetch_kind == PF_IPCP) {
        n = ipcp_step(&s->ipcp, pc, vaddr, l1d_hit);
        targets = s->ipcp.targets;
    }
    else {
        n = berti_step(&s->berti, pc, vaddr);
        targets = s->berti.targets;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        if (l1_prefetch_target(s, targets[i], pc, cycle) < 0)
            return -1;
    }
    return n < 0 ? -1 : 0;
}

/* ------------------------------------------------------------------ */
/* One demand access                                                   */
/* ------------------------------------------------------------------ */

/* _record_offchip_prediction_location: where the block is when a
 * speculative request fires. */
static void
record_location(Stepper *s, long long block, int missed_l1d)
{
    CacheState *levels[3] = {&s->l1, &s->l2, &s->llc};
    int location = missed_l1d ? LEVEL_L2C : LEVEL_L1D;
    while (location < LEVEL_DRAM && cache_find(levels[location], block) < 0)
        location++;
    s->hstats[H_offchip_prediction_location + location]++;
}

/* MemoryHierarchy.demand_access plus the perceptron predict/train, inlined.
 * Returns the latency the core sees. */
static int
demand_access(Stepper *s, long long pc, long long vaddr, int kind, double dispatch,
              long long *latency_out)
{
    long long cycle = (long long)dispatch;
    int is_write = kind == 1;

    /* -- page translation -- */
    long long paddr;
    if (translate(s, vaddr, &paddr) < 0)
        return -1;
    long long block = paddr >> 6;
    s->hstats[is_write ? H_demand_stores : H_demand_loads]++;

    /* -- off-chip prediction -- */
    int action = 0, predicted_offchip = 0;
    long long confidence = 0;
    Py_ssize_t indices[NUM_FEATURES];
    if (s->predictor_kind != PK_NULL) {
        uint64_t values[NUM_FEATURES];
        history_step(&s->history, pc, vaddr, values);
        for (int f = 0; f < NUM_FEATURES; f++)
            indices[f] = table_slot(values[f], s->flp.bits[f], s->flp.entries[f]);
        confidence = perceptron_predict(&s->flp, indices);
        if ((double)confidence > s->tau_high) {
            action = 1;
            predicted_offchip = 1;
            s->flp_counts[FLP_immediate_decisions]++;
        }
        else if ((double)confidence >= s->tau_low) {
            predicted_offchip = 1;
            action = s->selective_delay ? 2 : 1;
            s->flp_counts[action == 2 ? FLP_delayed_decisions : FLP_immediate_decisions]++;
        }
        else {
            s->flp_counts[FLP_negative_decisions]++;
        }
        s->last_prediction = predicted_offchip;
    }
    if (predicted_offchip)
        s->hstats[H_offchip_predictions]++;

    /* -- immediate speculative DRAM request -- */
    int speculative = 0;
    long long speculative_ready = 0;
    if (action == 1) {
        s->hstats[H_speculative_requests]++;
        record_location(s, block, 0);
        speculative = 1;
        speculative_ready = s->predictor_latency
                            + dram_access(s, cycle + s->predictor_latency,
                                          D_speculative_transactions);
    }

    /* -- L1D lookup -- */
    long long latency = s->l1.latency;
    int prefetch_hit;
    Py_ssize_t l1_slot = cache_lookup(&s->l1, block, cycle, is_write, &latency, &prefetch_hit);
    int l1d_hit = l1_slot >= 0;
    if (prefetch_hit && (s->l1.flags[l1_slot] & F_PENDING)
        && count_l1_prefetch(s, l1_slot, 1) < 0)
        return -1;

    /* -- L1D prefetcher -- */
    if (s->prefetch_kind != PF_NONE && l1_prefetch(s, pc, vaddr, l1d_hit, cycle) < 0)
        return -1;

    /* -- selective delay (FLP) -- */
    if (action == 2) {
        if (l1d_hit) {
            s->hstats[H_delayed_predictions_saved]++;
        }
        else {
            s->hstats[H_speculative_requests]++;
            s->hstats[H_delayed_speculative_requests]++;
            record_location(s, block, 1);
            long long wait = s->l1.latency + s->predictor_latency;
            speculative = 1;
            speculative_ready = wait + dram_access(s, cycle + wait, D_speculative_transactions);
        }
    }

    int went_offchip = 0;
    long long effective_latency = latency;
    if (l1d_hit) {
        s->hstats[H_served_by + LEVEL_L1D]++;
    }
    else {
        /* -- below-L1D walk -- */
        latency += s->l2.latency;
        int l2_prefetch_hit;
        int l2_hit = cache_lookup(&s->l2, block, cycle, is_write, &latency, &l2_prefetch_hit) >= 0;
        if (l2_prefetch_hit && resolve_l2_prefetch(s, block) < 0)
            return -1;

        /* SPP observes L2 demand accesses. */
        if (s->have_spp && spp_issue(s, pc, block, cycle) < 0)
            return -1;

        if (l2_hit) {
            if (cache_fill(s, &s->l1, block, cycle + latency, 0, -1) < 0)
                return -1;
            s->hstats[H_served_by + LEVEL_L2C]++;
        }
        else {
            latency += s->llc.latency;
            int llc_prefetch_hit;
            if (cache_lookup(&s->llc, block, cycle, is_write, &latency, &llc_prefetch_hit) >= 0) {
                if (cache_fill(s, &s->l1, block, cycle + latency, 0, -1) < 0
                    || cache_fill(s, &s->l2, block, cycle + latency, 0, -1) < 0)
                    return -1;
                s->hstats[H_served_by + LEVEL_LLC]++;
            }
            else {
                long long dram_latency;
                if (speculative) {
                    /* Merged with the in-flight speculative fetch at the
                     * memory controller: no second DRAM transaction. */
                    dram_latency = s->dram_access_latency;
                }
                else {
                    dram_latency = dram_access(s, cycle + latency, D_demand_transactions);
                }
                latency += dram_latency;
                long long ready = cycle + latency;
                if (cache_fill(s, &s->llc, block, ready, 0, -1) < 0
                    || cache_fill(s, &s->l2, block, ready, 0, -1) < 0
                    || cache_fill(s, &s->l1, block, ready, 0, -1) < 0)
                    return -1;
                s->hstats[H_served_by + LEVEL_DRAM]++;
                went_offchip = 1;
            }
        }
        effective_latency = latency;
        if (speculative && went_offchip)
            effective_latency = speculative_ready > s->l1.latency ? speculative_ready
                                                                  : s->l1.latency;
    }

    /* -- perceptron training -- */
    if (s->predictor_kind != PK_NULL)
        perceptron_train(&s->flp, indices, went_offchip, confidence);

    if (kind == 0) {
        *latency_out = effective_latency;
        s->loads++;
        s->total_load_latency += (double)effective_latency;
    }
    else {
        *latency_out = 1;
        s->stores++;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Core timing, sampling and the mix driver                            */
/* ------------------------------------------------------------------ */

/* Call the sample hook with the phase's state just after its load/store
 * number ``accesses``. */
static int
sample(Stepper *s, long long accesses)
{
    PyObject *accesses_obj = PyLong_FromLongLong(accesses);
    PyObject *instructions = PyLong_FromLongLong(s->base_instructions + s->instructions);
    PyObject *cycles = PyFloat_FromDouble(s->last_retire);
    int rc = -1;
    if (accesses_obj && instructions && cycles)
        rc = discard(call3(s->sample_hook, accesses_obj, instructions, cycles));
    Py_XDECREF(accesses_obj);
    Py_XDECREF(instructions);
    Py_XDECREF(cycles);
    s->next_sample += s->sample_interval;
    return rc;
}

/* The ring slot ``offset`` (< retire_cap) places after the ROB's head. */
static inline Py_ssize_t
retire_slot(const Stepper *s, Py_ssize_t offset)
{
    Py_ssize_t slot = s->retire_head + offset;
    return slot >= s->retire_cap ? slot - s->retire_cap : slot;
}

/* Write the core runner's state and the off-chip predictor's last prediction
 * back (end of the trace). */
static int
finish(Stepper *s)
{
    PyObject *times = PyList_New(s->retire_len);
    if (times == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < s->retire_len; i++) {
        PyObject *value = PyFloat_FromDouble(s->retire[retire_slot(s, i)]);
        if (value == NULL) {
            Py_DECREF(times);
            return -1;
        }
        PyList_SET_ITEM(times, i, value);
    }
    int rc = -1;
    PyObject *cleared = PyObject_CallMethodNoArgs(s->retire_deque, S_clear);
    PyObject *extended = cleared ? PyObject_CallMethodOneArg(s->retire_deque, S_extend, times) : NULL;
    PyObject *dispatch = PyFloat_FromDouble(s->dispatch_cycle);
    PyObject *retire = PyFloat_FromDouble(s->last_retire);
    PyObject *latency = PyFloat_FromDouble(s->total_load_latency);
    PyObject *old = latency ? PyObject_GetAttr(s->runner, S_total_load_latency) : NULL;
    PyObject *total = old ? PyNumber_Add(old, latency) : NULL;
    if (extended && dispatch && retire && total
        && PyObject_SetAttr(s->runner, S__dispatch_cycle, dispatch) == 0
        && PyObject_SetAttr(s->runner, S__last_retire, retire) == 0
        && add_attr(s->runner, S_instructions, s->instructions) == 0
        && add_attr(s->runner, S_loads, s->loads) == 0
        && add_attr(s->runner, S_stores, s->stores) == 0
        && PyObject_SetAttr(s->runner, S_total_load_latency, total) == 0)
        rc = 0;
    Py_DECREF(times);
    Py_XDECREF(cleared);
    Py_XDECREF(extended);
    Py_XDECREF(dispatch);
    Py_XDECREF(retire);
    Py_XDECREF(latency);
    Py_XDECREF(old);
    Py_XDECREF(total);
    if (rc == 0 && s->predictor_kind != PK_NULL)
        rc = PyObject_SetAttr(s->predictor, S_last_prediction, py_bool(s->last_prediction));
    return rc;
}

static inline void
retire_record(Stepper *s, double dispatch, long long latency)
{
    double completion = dispatch + (double)latency;
    double retire = s->last_retire + s->dispatch_interval;
    if (completion > retire)
        retire = completion;
    s->retire[retire_slot(s, s->retire_len)] = retire;
    s->retire_len++;
    s->last_retire = retire;
    s->dispatch_cycle = dispatch + s->dispatch_interval;
    s->instructions++;
}

static void release_components(Stepper *s);

/* Advance to the next load/store, pausing before it with its dispatch
 * cycle in *pause (when ``pause`` is not NULL), or to the end of the trace.
 * Returns 1 when paused, 0 at the end and -1 on error. */
static int
advance(Stepper *s, double *pause)
{
    if (s->finished)
        return 0;
    for (;;) {
        double dispatch;
        if (s->pending) {
            s->pending = 0;
            dispatch = s->pending_dispatch;
        }
        else {
            if (s->pos == s->total) {
                s->finished = 1;
                int rc = finish(s);
                release_components(s);
                return rc;
            }
            dispatch = s->dispatch_cycle;
            if (s->retire_len >= s->rob_size) {
                double constraint = s->retire[s->retire_head];
                s->retire_head = retire_slot(s, 1);
                s->retire_len--;
                if (constraint > dispatch)
                    dispatch = constraint;
            }
            if (s->kinds[s->pos] == s->kind_non_mem) {
                retire_record(s, dispatch, 1);
                s->pos++;
                continue;
            }
            if (pause != NULL) {
                s->pending = 1;
                *pause = s->pending_dispatch = dispatch;
                return 1;
            }
        }
        long long latency;
        Py_ssize_t i = s->pos;
        if (demand_access(s, s->pcs[i], s->vaddrs[i], s->kinds[i], dispatch, &latency) < 0)
            goto error;
        retire_record(s, dispatch, latency);
        s->pos++;
        long long accesses = s->loads + s->stores;
        if (accesses == s->next_sample && sample(s, accesses) < 0)
            goto error;
    }
error:
    s->finished = 1;
    release_components(s);
    return -1;
}

static PyObject *
stepper_run(Stepper *s, PyObject *Py_UNUSED(ignored))
{
    if (advance(s, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyTypeObject StepperType;

/* run_mix(steppers): the measured phase of a multi-core mix.  Each step
 * resumes the live Stepper with the smallest (paused dispatch cycle, core
 * id); every core starts paused at -inf. */
static PyObject *
run_mix(PyObject *Py_UNUSED(module), PyObject *arg)
{
    PyObject *steppers = PySequence_Tuple(arg);
    if (steppers == NULL)
        return NULL;
    Py_ssize_t live = PyTuple_GET_SIZE(steppers);
    double *cycles = mem_calloc(live, sizeof(double));
    Py_ssize_t *cores = mem_calloc(live, sizeof(Py_ssize_t));
    int rc = cycles && cores ? 0 : -1;
    for (Py_ssize_t i = 0; rc == 0 && i < live; i++) {
        if (!Py_IS_TYPE(PyTuple_GET_ITEM(steppers, i), &StepperType)) {
            PyErr_SetString(PyExc_TypeError, "run_mix needs Steppers");
            rc = -1;
        }
        cycles[i] = -Py_HUGE_VAL;
        cores[i] = i;
    }
    while (rc == 0 && live > 0) {
        /* cores[] stays in ascending order, so ties go to the lower id. */
        Py_ssize_t at = 0;
        for (Py_ssize_t i = 1; i < live; i++) {
            if (cycles[cores[i]] < cycles[cores[at]])
                at = i;
        }
        Py_ssize_t core = cores[at];
        rc = advance((Stepper *)PyTuple_GET_ITEM(steppers, core), &cycles[core]);
        if (rc == 0) {
            live--;
            memmove(&cores[at], &cores[at + 1], (live - at) * sizeof(Py_ssize_t));
        }
        else if (rc == 1) {
            rc = 0;
        }
    }
    PyMem_Free(cycles);
    PyMem_Free(cores);
    Py_DECREF(steppers);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Construction and lifetime                                           */
/* ------------------------------------------------------------------ */

static int
get_column(PyObject *array, Py_buffer *view, Py_ssize_t itemsize, const char *name)
{
    if (PyObject_GetBuffer(array, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != itemsize) {
        PyErr_Format(PyExc_TypeError, "trace column %s must be 1-D with %zd-byte items",
                     name, itemsize);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static int
init_predictor(Stepper *s, PyObject *predictor)
{
    s->predictor = Py_NewRef(predictor);
    if (s->predictor_kind == PK_NULL)
        return 0;
    if (perceptron_bind(&s->flp, predictor, NUM_FEATURES) < 0
        || get_truth(predictor, S_last_prediction, &s->last_prediction) < 0)
        return -1;
    PyObject *history = PyObject_GetAttr(predictor, S_history);
    if (history == NULL)
        return -1;
    int bound = history_bind(&s->history, history);
    Py_DECREF(history);
    if (bound < 0)
        return -1;
    if (get_truth(predictor, S_selective_delay, &s->selective_delay) < 0
        || get_double(predictor, S_tau_high, &s->tau_high) < 0
        || get_double(predictor, S_tau_low, &s->tau_low) < 0
        || (s->flp_counts = counter_array(&s->counter_views[2], predictor, FLP_COUNT,
                                          "FLP")) == NULL)
        return -1;
    return 0;
}

static int
init_core(Stepper *s, PyObject *runner)
{
    s->runner = Py_NewRef(runner);
    long long rob_size;
    if (get_ll(runner, S_rob_size, &rob_size) < 0
        || get_ll(runner, S_instructions, &s->base_instructions) < 0
        || get_double(runner, S_dispatch_interval, &s->dispatch_interval) < 0
        || get_double(runner, S__dispatch_cycle, &s->dispatch_cycle) < 0
        || get_double(runner, S__last_retire, &s->last_retire) < 0
        || (s->retire_deque = PyObject_GetAttr(runner, S__retire_times)) == NULL)
        return -1;
    if (rob_size <= 0) {
        PyErr_SetString(PyExc_ValueError, "rob size must be positive");
        return -1;
    }
    s->rob_size = (Py_ssize_t)rob_size;
    Py_ssize_t held = PyObject_Size(s->retire_deque);
    if (held < 0)
        return -1;
    s->retire_cap = (held > s->rob_size ? held : s->rob_size) + 1;
    s->retire = PyMem_Malloc(sizeof(double) * s->retire_cap);
    if (s->retire == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    PyObject *seq = PySequence_Fast(s->retire_deque, "retire times must be iterable");
    if (seq == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < held; i++) {
        s->retire[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(seq, i));
        if (s->retire[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    s->retire_len = held;
    return 0;
}

static int
init_hierarchy(Stepper *s, PyObject *h)
{
    PyObject *l1d = NULL, *l2c = NULL, *llc = NULL, *page_table = NULL, *config = NULL;
    int rc = -1;
    s->hierarchy = Py_NewRef(h);
    if ((l1d = PyObject_GetAttr(h, S_l1d)) == NULL || cache_init(&s->l1, l1d, LEVEL_L1D) < 0
        || (l2c = PyObject_GetAttr(h, S_l2c)) == NULL || cache_init(&s->l2, l2c, LEVEL_L2C) < 0
        || (llc = PyObject_GetAttr(h, S_llc)) == NULL || cache_init(&s->llc, llc, LEVEL_LLC) < 0
        || (s->dram = PyObject_GetAttr(h, S_dram)) == NULL
        || (s->dram_stats = stats_array(&s->counter_views[1], s->dram, D_COUNT, "DRAM")) == NULL
        || (s->busy_until = state_array(&s->busy_view, s->dram, S__busy_until, 'd', 1,
                                        "DRAM")) == NULL
        || get_double(s->dram, S__cycles_per_transaction, &s->cycles_per_transaction) < 0
        || (config = PyObject_GetAttr(s->dram, S_config)) == NULL
        || get_ll(config, S_access_latency, &s->dram_access_latency) < 0
        || (page_table = PyObject_GetAttr(h, S_page_table)) == NULL
        || page_table_init(&s->pages, page_table) < 0
        || (s->hstats = stats_array(&s->counter_views[0], h, H_COUNT, "hierarchy")) == NULL
        || (s->resolve_l2 = PyObject_GetAttr(h, S__resolve_l2c_prefetch_use)) == NULL
        || (s->pending_l2c = PyObject_GetAttr(h, S__pending_l2c_prefetches)) == NULL
        || get_ll(h, S__predictor_latency, &s->predictor_latency) < 0
        || get_double(h, S__prefetch_drop_queue_cycles, &s->drop_cycles) < 0)
        goto done;
    if (!PyDict_CheckExact(s->pending_l2c)) {
        PyErr_SetString(PyExc_TypeError, "pending prefetches must be a dict");
        goto done;
    }
    rc = 0;
done:
    Py_XDECREF(l1d);
    Py_XDECREF(l2c);
    Py_XDECREF(llc);
    Py_XDECREF(page_table);
    Py_XDECREF(config);
    return rc;
}

/* Bind the prefetch path's components (their state in place). */
static int
init_prefetch(Stepper *s, PyObject *h)
{
    if ((s->prefetcher = PyObject_GetAttr(h, S_l1d_prefetcher)) == NULL
        || (s->l2_prefetcher = PyObject_GetAttr(h, S_l2_prefetcher)) == NULL
        || (s->l1_filter = PyObject_GetAttr(h, S_l1d_prefetch_filter)) == NULL
        || (s->l2_filter = PyObject_GetAttr(h, S_l2_prefetch_filter)) == NULL)
        return -1;
    if (s->prefetch_kind < PF_NONE || s->prefetch_kind > PF_BERTI
        || (s->prefetch_kind == PF_NONE) != (s->prefetcher == Py_None)) {
        PyErr_SetString(PyExc_ValueError, "prefetch kind does not match the L1D prefetcher");
        return -1;
    }
    s->have_spp = s->l2_prefetcher != Py_None;
    s->have_ppf = s->l2_filter != Py_None;
    s->have_slp = s->l1_filter != Py_None;
    if ((s->prefetch_kind == PF_IPCP && ipcp_bind(&s->ipcp, s->prefetcher) < 0)
        || (s->prefetch_kind == PF_BERTI && berti_bind(&s->berti, s->prefetcher) < 0)
        || (s->have_spp && spp_bind(&s->spp, s->l2_prefetcher) < 0)
        || (s->have_ppf && ppf_bind(&s->ppf, s->l2_filter) < 0)
        || (s->have_slp && slp_bind(&s->slp, s->l1_filter) < 0))
        return -1;
    return 0;
}

static void
release_components(Stepper *s)
{
    ipcp_release(&s->ipcp);
    berti_release(&s->berti);
    spp_release(&s->spp);
    ppf_release(&s->ppf);
    slp_release(&s->slp);
    history_release(&s->history);
    page_table_release(&s->pages);
}

static PyObject *
stepper_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {
        "runner", "hierarchy", "pcs", "vaddrs", "kinds", "kind_non_mem",
        "predictor_kind", "prefetch_kind", "sample_hook", "sample_interval", NULL};
    PyObject *runner, *hierarchy, *pcs, *vaddrs, *kinds, *hook;
    int kind_non_mem, predictor_kind, prefetch_kind;
    long long sample_interval;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOiiiOL", keywords, &runner,
                                     &hierarchy, &pcs, &vaddrs, &kinds, &kind_non_mem,
                                     &predictor_kind, &prefetch_kind, &hook,
                                     &sample_interval))
        return NULL;
    if (predictor_kind < PK_NULL || predictor_kind > PK_FLP) {
        PyErr_SetString(PyExc_ValueError, "unknown predictor kind");
        return NULL;
    }
    if (load_model_types() < 0)
        return NULL;
    Stepper *s = (Stepper *)type->tp_alloc(type, 0);
    if (s == NULL)
        return NULL;
    s->kind_non_mem = kind_non_mem;
    s->next_sample = -1;
    s->predictor_kind = predictor_kind;
    s->prefetch_kind = prefetch_kind;
    if (hook != Py_None && sample_interval > 0) {
        s->sample_hook = Py_NewRef(hook);
        s->sample_interval = sample_interval;
        s->next_sample = sample_interval;
    }
    if (get_column(pcs, &s->pc_buf, 8, "pc") < 0)
        goto error;
    if (get_column(vaddrs, &s->vaddr_buf, 8, "vaddr") < 0) {
        PyBuffer_Release(&s->pc_buf);
        goto error;
    }
    if (get_column(kinds, &s->kind_buf, 1, "kind") < 0) {
        PyBuffer_Release(&s->pc_buf);
        PyBuffer_Release(&s->vaddr_buf);
        goto error;
    }
    s->have_columns = 1;
    s->pcs = (const int64_t *)s->pc_buf.buf;
    s->vaddrs = (const int64_t *)s->vaddr_buf.buf;
    s->kinds = (const uint8_t *)s->kind_buf.buf;
    s->total = s->pc_buf.shape[0];
    if (s->vaddr_buf.shape[0] != s->total || s->kind_buf.shape[0] != s->total) {
        PyErr_SetString(PyExc_ValueError, "trace columns differ in length");
        goto error;
    }
    if (init_core(s, runner) < 0 || init_hierarchy(s, hierarchy) < 0)
        goto error;
    PyObject *predictor = PyObject_GetAttr(hierarchy, S_offchip_predictor);
    if (predictor == NULL)
        goto error;
    int predictor_ok = init_predictor(s, predictor);
    Py_DECREF(predictor);
    if (predictor_ok < 0 || init_prefetch(s, hierarchy) < 0)
        goto error;
    return (PyObject *)s;
error:
    Py_DECREF(s);
    return NULL;
}

static void
release_buffers(Stepper *s)
{
    if (s->have_columns) {
        PyBuffer_Release(&s->pc_buf);
        PyBuffer_Release(&s->vaddr_buf);
        PyBuffer_Release(&s->kind_buf);
        s->have_columns = 0;
    }
    cache_release(&s->l1);
    cache_release(&s->l2);
    cache_release(&s->llc);
    view_release(&s->busy_view);
    for (int i = 0; i < 3; i++)
        view_release(&s->counter_views[i]);
    perceptron_release(&s->flp);
    release_components(s);
}

static int
stepper_traverse(Stepper *s, visitproc visit, void *arg)
{
#define VISIT(n) Py_VISIT(s->n);
    STEPPER_OBJECTS(VISIT)
#undef VISIT
    Py_VISIT(s->l1.listener);
    Py_VISIT(s->l2.listener);
    Py_VISIT(s->llc.listener);
    Py_VISIT(s->pages.mapping);
    Py_VISIT(s->pages.allocated);
    return 0;
}

static int
stepper_clear(Stepper *s)
{
    s->finished = 1;
    release_buffers(s);
#define CLEAR(n) Py_CLEAR(s->n);
    STEPPER_OBJECTS(CLEAR)
#undef CLEAR
    Py_CLEAR(s->l1.listener);
    Py_CLEAR(s->l2.listener);
    Py_CLEAR(s->llc.listener);
    Py_CLEAR(s->pages.mapping);
    Py_CLEAR(s->pages.allocated);
    return 0;
}

static void
stepper_dealloc(Stepper *s)
{
    PyObject_GC_UnTrack(s);
    stepper_clear(s);
    PyMem_Free(s->retire);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static PyMethodDef stepper_methods[] = {
    {"run", (PyCFunction)stepper_run, METH_NOARGS,
     "Run the rest of the trace without yielding at loads and stores."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject StepperType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._fused.Stepper",
    .tp_doc = "One core's trace through its hierarchy; run() runs it to the end, "
              "run_mix() interleaves several.",
    .tp_basicsize = sizeof(Stepper),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = stepper_new,
    .tp_dealloc = (destructor)stepper_dealloc,
    .tp_traverse = (traverseproc)stepper_traverse,
    .tp_clear = (inquiry)stepper_clear,
    .tp_methods = stepper_methods,
};

static PyMethodDef module_methods[] = {
    {"run_mix", run_mix, METH_O,
     "Interleave the steppers of a multi-core mix on (dispatch cycle, core id)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fused_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fused",
    .m_methods = module_methods,
    .m_doc = "Compiled fused access kernel of the batch simulator core.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__fused(void)
{
#define INTERN(n) if ((S_##n = PyUnicode_InternFromString(#n)) == NULL) return NULL;
    NAMES(INTERN)
#undef INTERN
    if (PyType_Ready(&StepperType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&fused_module);
    if (module == NULL)
        return NULL;
    PyObject *layout = counter_layout();
    if (layout == NULL || PyModule_AddObjectRef(module, "Stepper", (PyObject *)&StepperType) < 0
        || PyModule_AddObject(module, "COUNTER_LAYOUT", layout) < 0) {
        Py_XDECREF(layout);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
