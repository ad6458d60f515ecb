/*
 * Compiled fused access kernel of the batch simulator core.
 *
 * One Stepper runs one core's trace through its MemoryHierarchy: core
 * dispatch/ROB timing, page translation with first-touch frame allocation,
 * the L1D->L2C->LLC->DRAM walk with its LRU updates and fills, speculative
 * DRAM requests, the FLP/Hermes feature history, weight sums and training,
 * the L1D/L2C prefetch issue paths, and the order-dependent kernels of the
 * stock prefetchers and filters: IPCP or Berti at the L1D, SPP at the L2C,
 * the SLP filter above the L1D and the PPF filter behind SPP.  It works on
 * the very state the scalar reference uses, in the same order and with the
 * same arithmetic.  Flat state is read and written in place through the
 * buffer protocol: each cache's typed arrays (_tags, _stamps, _ready,
 * _flags, _source, _set_fill and the one-element _clock; see
 * repro.memory.cache.Cache), the DRAM channel's one-element _busy_until,
 * SPP's pattern table (per-delta counts, deltas in insertion order, their
 * number, totals and the best-delta memo), IPCP _ip_buf/_cplx_buf, Berti
 * _page_buf/_total_buf and the perceptron weights of FLP, Hermes, PPF and
 * SLP.  So every core of a mix sees the others' DRAM and LLC updates with
 * no copy to refresh.  The page table's _mapping, _allocated_frames and
 * page_faults, the pending-prefetch dicts and every stats object stay
 * Python objects; a block address is boxed only to key a pending-prefetch
 * dict or an EvictionInfo.  Dict- and list-backed component state (IPCP's
 * region FIFO, Berti's histories, delta counters and confirmed lists, SPP's
 * signature FIFO, the page buffers and PC histories of the FLP/Hermes and
 * SLP feature histories) is copied into flat tables when the Stepper is
 * built and written back into the same containers, in the same order, when
 * the trace ends (a run that raises leaves them as loaded).  PPF training
 * on prefetch use and L2C eviction stays a Python call.  A hierarchy with
 * any component the kernel does not model runs the scalar reference
 * instead (repro.sim.batch.batch_unsupported_reason).  Pure counters
 * accumulate per chunk and are added to their stats objects at the end of
 * each chunk.
 *
 * Stepper.run() runs one core's trace to its end.  run_mix() interleaves
 * the cores of a multi-core mix: it pauses each Stepper before every
 * load/store and resumes the core with the smallest (dispatch cycle, core
 * id), advancing a Stepper by a direct call and a scalar-reference core
 * (a Python iterator) by PyIter_Next.  Built on first use by
 * repro.sim.native.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Interned names and the model's Python types                         */
/* ------------------------------------------------------------------ */

static PyObject *EvictionInfoType, *PrefetchRecordType;
static PyObject *Levels[4]; /* MemLevel.L1D .. MemLevel.DRAM */
static long long BertiHistoryDepth;

/* PrefetchRecord slot offsets. */
static Py_ssize_t PR_block_addr, PR_served_by, PR_issue_cycle, PR_useful,
    PR_filter_metadata;

#define NAMES(X)                                                             \
    X(_clock) X(_busy_until) X(_tags) X(_stamps) X(_ready) X(_flags)         \
    X(_source) X(_set_fill) X(stats) X(_eviction_listener) X(num_sets)       \
    X(associativity)                                                         \
    X(latency) X(l1d) X(l2c) X(llc) X(dram) X(page_table) X(_mapping)        \
    X(_allocated_frames) X(core_id) X(memory_frames) X(page_faults)          \
    X(_resolve_l2c_prefetch_use) X(_pending_l1d_prefetches)                  \
    X(_pending_l2c_prefetches) X(_predictor_latency)                         \
    X(_prefetch_drop_queue_cycles) X(_cycles_per_transaction) X(config)      \
    X(access_latency)                                                        \
    X(offchip_predictor) X(l1d_prefetcher) X(l2_prefetcher)                  \
    X(l1d_prefetch_filter) X(l2_prefetch_filter)                             \
    X(perceptron) X(_tables) X(_weight_limits) X(training_threshold)         \
    X(last_prediction) X(activation_threshold) X(tau_high) X(tau_low)        \
    X(selective_delay) X(immediate_decisions) X(delayed_decisions)           \
    X(negative_decisions) X(predictions) X(positive_predictions)             \
    X(training_events) X(correct_predictions) X(weight_updates)              \
    X(_retire_times) X(rob_size) X(dispatch_interval) X(_dispatch_cycle)     \
    X(_last_retire) X(instructions) X(loads) X(stores)                       \
    X(total_load_latency) X(clear) X(extend) X(demand_loads)                 \
    X(demand_stores) X(offchip_predictions) X(speculative_requests)          \
    X(delayed_speculative_requests) X(delayed_predictions_saved)             \
    X(offchip_prediction_location)                                           \
    X(l1d_prefetch_candidates) X(l1d_prefetches_dropped_resident)            \
    X(l1d_prefetches_filtered) X(l1d_prefetches_dropped_queue_full)          \
    X(l1d_prefetches_issued) X(l2c_prefetch_candidates)                      \
    X(l2c_prefetches_dropped_resident) X(l2c_prefetches_filtered)            \
    X(l2c_prefetches_dropped_queue_full) X(l2c_prefetches_issued)            \
    X(served_by) X(l1d_prefetch_served_by) X(useful_l1d_prefetches)          \
    X(useless_l1d_prefetches) X(accurate_prefetch_source)                    \
    X(inaccurate_prefetch_source) X(demand_accesses)                         \
    X(demand_hits) X(demand_misses) X(prefetch_hits) X(prefetch_fills)       \
    X(demand_fills) X(evictions) X(writebacks) X(useful_prefetch_evictions)  \
    X(useless_prefetch_evictions) X(total_transactions)                      \
    X(demand_transactions) X(speculative_transactions)                       \
    X(l1d_prefetch_transactions) X(l2c_prefetch_transactions)                \
    X(total_queue_cycles) X(max_queue_cycles)                                \
    /* IPCP */                                                               \
    X(ip_table_entries) X(cplx_table_entries) X(region_entries)              \
    X(cs_degree) X(cplx_degree) X(gs_degree) X(nl_degree)                    \
    X(cs_confidence_threshold) X(gs_density_threshold) X(_ip_buf)            \
    X(_cplx_buf) X(_regions) X(_region_order) X(class_counts) X(_last_class) \
    X(cs) X(cplx) X(gs) X(nl) X(none)                                        \
    /* Berti */                                                              \
    X(table_entries) X(low_coverage) X(max_prefetch_degree)                  \
    X(relearn_interval) X(_page_buf) X(_total_buf) X(_histories)             \
    X(_delta_hits) X(_confirmed)                                             \
    /* SPP */                                                                \
    X(signature_table_entries) X(pattern_table_entries)                      \
    X(lookahead_confidence) X(l2_fill_confidence) X(max_lookahead_depth)     \
    X(_signatures) X(_signature_order) X(_pattern_counts) X(_pattern_deltas) \
    X(_pattern_lengths) X(_pattern_totals) X(_pattern_best_delta)            \
    X(_pattern_best_count) X(lookahead_prefetches)                           \
    /* PPF and SLP */                                                        \
    X(_weights) X(_index_bits) X(issue_threshold) X(consultations)           \
    X(accepted) X(rejected) X(tau_pref) X(use_leveling_feature) X(history)   \
    X(_page_buffer) X(page_buffer_entries) X(pc_history_length)              \
    X(_pc_history) X(_pcs_tuple) X(_pcs_hash) X(issued) X(discarded)

#define DECLARE_NAME(n) static PyObject *S_##n;
NAMES(DECLARE_NAME)
#undef DECLARE_NAME

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* Store ``value`` (borrowed) into a __slots__ member. */
static inline void
slot_set(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    PyObject *old = SLOT(obj, off);
    Py_INCREF(value);
    SLOT(obj, off) = value;
    Py_XDECREF(old);
}

/* Read a __slots__ member; NULL with AttributeError when unset. */
static inline PyObject *
slot_get(PyObject *obj, Py_ssize_t off)
{
    PyObject *value = SLOT(obj, off);
    if (value == NULL)
        PyErr_SetString(PyExc_AttributeError, "unset slot in a model object");
    return value;
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

static Py_ssize_t
slot_offset(PyObject *type, const char *name)
{
    PyObject *dict = ((PyTypeObject *)type)->tp_dict;
    PyObject *descr = PyDict_GetItemString(dict, name);
    if (descr == NULL || !Py_IS_TYPE(descr, &PyMemberDescr_Type)
        || ((PyMemberDescrObject *)descr)->d_member->type != T_OBJECT_EX) {
        PyErr_Format(PyExc_TypeError, "%s.%s is not a __slots__ member",
                     ((PyTypeObject *)type)->tp_name, name);
        return -1;
    }
    return ((PyMemberDescrObject *)descr)->d_member->offset;
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
    PyObject *record = import_attr("repro.memory.hierarchy", "PrefetchRecord");
    PyObject *level = import_attr("repro.common.types", "MemLevel");
    PyObject *depth = import_attr("repro.prefetchers.berti", "_HISTORY_DEPTH");
    if (info == NULL || record == NULL || level == NULL || depth == NULL)
        goto error;
    if (!PyType_Check(record)) {
        PyErr_SetString(PyExc_TypeError, "PrefetchRecord must be a class");
        goto error;
    }
    BertiHistoryDepth = PyLong_AsLongLong(depth);
    if (BertiHistoryDepth < 1 || BertiHistoryDepth > 255) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "Berti history depth out of range");
        goto error;
    }
    if ((PR_block_addr = slot_offset(record, "block_addr")) < 0
        || (PR_served_by = slot_offset(record, "served_by")) < 0
        || (PR_issue_cycle = slot_offset(record, "issue_cycle")) < 0
        || (PR_useful = slot_offset(record, "useful")) < 0
        || (PR_filter_metadata = slot_offset(record, "filter_metadata")) < 0)
        goto error;
    static const char *level_names[4] = {"L1D", "L2C", "LLC", "DRAM"};
    for (int i = 0; i < 4; i++) {
        Levels[i] = PyObject_GetAttrString(level, level_names[i]);
        if (Levels[i] == NULL)
            goto error;
    }
    Py_DECREF(level);
    Py_DECREF(depth);
    EvictionInfoType = info;
    PrefetchRecordType = record;
    return 0;
error:
    for (int i = 0; i < 4; i++)
        Py_CLEAR(Levels[i]);
    Py_XDECREF(info);
    Py_XDECREF(record);
    Py_XDECREF(level);
    Py_XDECREF(depth);
    return -1;
}

/* Allocate an instance of a __slots__ dataclass without running __init__;
 * the caller fills every slot. */
static inline PyObject *
alloc_slots(PyObject *type)
{
    PyTypeObject *tp = (PyTypeObject *)type;
    return tp->tp_alloc(tp, 0);
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

static int
set_ll(PyObject *obj, PyObject *name, long long value)
{
    PyObject *boxed = PyLong_FromLongLong(value);
    if (boxed == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, boxed);
    Py_DECREF(boxed);
    return rc;
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

/* mapping[key] += delta */
static int
add_item(PyObject *mapping, PyObject *key, long long delta)
{
    if (delta == 0)
        return 0;
    PyObject *value = PyObject_GetItem(mapping, key);
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
    int rc = PyObject_SetItem(mapping, key, sum);
    Py_DECREF(sum);
    return rc;
}

/* getattr(obj, name)[level] += counts[level] for the four memory levels. */
static int
add_levels(PyObject *obj, PyObject *name, long long *counts)
{
    PyObject *mapping = PyObject_GetAttr(obj, name);
    if (mapping == NULL)
        return -1;
    int rc = 0;
    for (int level = 0; level < 4; level++) {
        if (rc == 0 && add_item(mapping, Levels[level], counts[level]) < 0)
            rc = -1;
        counts[level] = 0;
    }
    Py_DECREF(mapping);
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

/* Python's ``a % m`` for m > 0. */
static inline int64_t
py_mod(int64_t a, int64_t m)
{
    int64_t r = a % m;
    return r < 0 ? r + m : r;
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

/* A held buffer view of a numpy table. */
typedef struct {
    Py_buffer view;
    int held;
} View;

/* A writable C-contiguous 1-D buffer of signed ``itemsize``-byte integers
 * (``length`` items unless negative); NULL with TypeError otherwise. */
static void *
view_ints(View *v, PyObject *obj, Py_ssize_t itemsize, Py_ssize_t length, const char *what)
{
    if (PyObject_GetBuffer(obj, &v->view, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return NULL;
    v->held = 1;
    const char *format = v->view.format ? v->view.format : "B";
    if (*format == '@' || *format == '=')
        format++;
    if (v->view.ndim != 1 || v->view.itemsize != itemsize || format[0] == '\0'
        || format[1] != '\0' || strchr("ilq", format[0]) == NULL
        || (length >= 0 && v->view.shape[0] != length)) {
        PyErr_Format(PyExc_TypeError, "%s must be a 1-D int%zd array of %zd items",
                     what, 8 * itemsize, length);
        return NULL;
    }
    return v->view.buf;
}

static void *
attr_ints(View *v, PyObject *obj, PyObject *name, Py_ssize_t itemsize, Py_ssize_t length,
          const char *what)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return NULL;
    void *data = view_ints(v, value, itemsize, length, what);
    Py_DECREF(value);
    return data;
}

static void
view_release(View *v)
{
    if (v->held) {
        PyBuffer_Release(&v->view);
        v->held = 0;
    }
}

/* One of a model object's flat state arrays, used in place: ``length``
 * items of array typecode ``code``; ``what`` names the owner in errors. */
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
    if (rc < 0 || v->view.ndim != 1 || v->view.format == NULL
        || v->view.format[0] != code || v->view.format[1] != '\0'
        || v->view.itemsize != (code == 'B' || code == 'b' ? 1 : 8)) {
        PyErr_Clear();
        PyErr_Format(PyExc_TypeError, "unexpected %s state layout", what);
        return NULL;
    }
    if (v->view.shape[0] != length) {
        PyErr_Format(PyExc_ValueError, "%s state does not match its geometry", what);
        return NULL;
    }
    return v->view.buf;
}

static PyObject *
attr_exact(PyObject *obj, PyObject *name, PyTypeObject *type, Py_ssize_t length)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return NULL;
    if (!Py_IS_TYPE(value, type) || (length >= 0 && PyObject_Length(value) != length)) {
        PyErr_Format(PyExc_TypeError, "%U must be a %s of %zd items", name, type->tp_name,
                     length);
        Py_DECREF(value);
        return NULL;
    }
    return value;
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

/* fold_xor(value, bits) for a non-negative value and 1 <= bits < 64. */
static inline uint64_t
fold_xor(uint64_t value, int bits)
{
    uint64_t mask = (1ull << bits) - 1, folded = 0;
    while (value) {
        folded ^= value & mask;
        value >>= bits;
    }
    return folded;
}

/* table_index(value, bits) % entries */
static inline Py_ssize_t
table_slot(uint64_t value, int bits, Py_ssize_t entries)
{
    return (Py_ssize_t)(fold_xor(jenkins32(value), bits) % (uint64_t)entries);
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
/* Ordered keys: a bounded insertion-ordered set of int64 keys         */
/* ------------------------------------------------------------------ */

/* The FIFO and LRU tables of the components (IPCP regions, SPP signatures,
 * the SLP page buffer): keys live in slots chained oldest to newest, found
 * through an open-addressing index (linear probing, backward-shift
 * deletion).  Payload arrays are indexed by slot. */
typedef struct {
    Py_ssize_t cap, len, head, tail, free_slot;
    int64_t *keys;
    Py_ssize_t *prev, *next, *index;
    size_t mask;
    int shift;
} OrderedKeys;

static int
keys_init(OrderedKeys *m, Py_ssize_t cap)
{
    size_t size = 4;
    int bits = 2;
    while (size < (size_t)cap * 2) {
        size <<= 1;
        bits++;
    }
    m->cap = cap;
    m->len = 0;
    m->head = m->tail = -1;
    m->mask = size - 1;
    m->shift = 64 - bits;
    m->keys = mem_calloc(cap, sizeof(int64_t));
    m->prev = mem_calloc(cap, sizeof(Py_ssize_t));
    m->next = mem_calloc(cap, sizeof(Py_ssize_t));
    m->index = mem_calloc((Py_ssize_t)size, sizeof(Py_ssize_t));
    if (m->keys == NULL || m->prev == NULL || m->next == NULL || m->index == NULL)
        return -1;
    for (size_t i = 0; i < size; i++)
        m->index[i] = -1;
    for (Py_ssize_t i = 0; i < cap; i++)
        m->next[i] = i + 1 < cap ? i + 1 : -1;
    m->free_slot = cap > 0 ? 0 : -1;
    return 0;
}

static void
keys_free(OrderedKeys *m)
{
    PyMem_Free(m->keys);
    PyMem_Free(m->prev);
    PyMem_Free(m->next);
    PyMem_Free(m->index);
    memset(m, 0, sizeof(*m));
}

static inline size_t
keys_home(const OrderedKeys *m, int64_t key)
{
    return (size_t)(((uint64_t)key * 0x9E3779B97F4A7C15ull) >> m->shift);
}

/* The slot holding ``key``, or -1. */
static inline Py_ssize_t
keys_find(const OrderedKeys *m, int64_t key)
{
    for (size_t i = keys_home(m, key);; i = (i + 1) & m->mask) {
        Py_ssize_t slot = m->index[i];
        if (slot < 0 || m->keys[slot] == key)
            return slot;
    }
}

static inline void
keys_link_tail(OrderedKeys *m, Py_ssize_t slot)
{
    m->prev[slot] = m->tail;
    m->next[slot] = -1;
    if (m->tail >= 0)
        m->next[m->tail] = slot;
    else
        m->head = slot;
    m->tail = slot;
}

static inline void
keys_unlink(OrderedKeys *m, Py_ssize_t slot)
{
    Py_ssize_t before = m->prev[slot], after = m->next[slot];
    if (before >= 0)
        m->next[before] = after;
    else
        m->head = after;
    if (after >= 0)
        m->prev[after] = before;
    else
        m->tail = before;
}

/* Append an absent ``key`` as the newest; the caller keeps len < cap. */
static Py_ssize_t
keys_append(OrderedKeys *m, int64_t key)
{
    Py_ssize_t slot = m->free_slot;
    m->free_slot = m->next[slot];
    m->keys[slot] = key;
    keys_link_tail(m, slot);
    m->len++;
    size_t i = keys_home(m, key);
    while (m->index[i] >= 0)
        i = (i + 1) & m->mask;
    m->index[i] = slot;
    return slot;
}

static void
keys_remove(OrderedKeys *m, Py_ssize_t slot)
{
    size_t hole = keys_home(m, m->keys[slot]);
    while (m->index[hole] != slot)
        hole = (hole + 1) & m->mask;
    for (size_t j = (hole + 1) & m->mask; m->index[j] >= 0; j = (j + 1) & m->mask) {
        size_t home = keys_home(m, m->keys[m->index[j]]);
        /* An entry whose home lies cyclically in (hole, j] stays put. */
        int stays = hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
        if (!stays) {
            m->index[hole] = m->index[j];
            hole = j;
        }
    }
    m->index[hole] = -1;
    keys_unlink(m, slot);
    m->next[slot] = m->free_slot;
    m->free_slot = slot;
    m->len--;
}

/* FIFO/LRU insertion of an absent key: with the table full the oldest key
 * goes first (Python inserts, then pops the oldest past capacity). */
static Py_ssize_t
keys_push(OrderedKeys *m, int64_t key)
{
    if (m->len == m->cap)
        keys_remove(m, m->head);
    return keys_append(m, key);
}

static void
keys_move_to_end(OrderedKeys *m, Py_ssize_t slot)
{
    if (slot != m->tail) {
        keys_unlink(m, slot);
        keys_link_tail(m, slot);
    }
}

/* ------------------------------------------------------------------ */
/* Hashed perceptrons (FLP/Hermes and SLP)                             */
/* ------------------------------------------------------------------ */

#define MAX_FEATURES 6

typedef struct {
    int features;
    View views[MAX_FEATURES];
    int32_t *tables[MAX_FEATURES];
    Py_ssize_t entries[MAX_FEATURES];
    int bits[MAX_FEATURES];
    long long lo[MAX_FEATURES], hi[MAX_FEATURES];
    double training_threshold;
    PyObject *stats;
    /* Chunk-local counters, added to ``stats`` at the end of each chunk. */
    long long predictions, positive, training_events, correct, weight_updates;
} Perceptron;

/* Bind a HashedPerceptron's weight tables (in place) and limits. */
static int
perceptron_init(Perceptron *p, PyObject *perceptron, int features)
{
    int rc = -1;
    PyObject *tables = NULL, *limits = NULL;
    if ((p->stats = PyObject_GetAttr(perceptron, S_stats)) == NULL
        || (tables = PyObject_GetAttr(perceptron, S__tables)) == NULL
        || (limits = PyObject_GetAttr(perceptron, S__weight_limits)) == NULL
        || get_double(perceptron, S_training_threshold, &p->training_threshold) < 0)
        goto done;
    if (PySequence_Size(tables) != features || PySequence_Size(limits) != features) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_ValueError, "the fused kernel models %d feature tables here",
                         features);
        goto done;
    }
    for (int f = 0; f < features; f++) {
        PyObject *table = PySequence_GetItem(tables, f);
        PyObject *bound = PySequence_GetItem(limits, f);
        int ok = table && bound && PyArg_ParseTuple(bound, "LL", &p->lo[f], &p->hi[f]);
        p->features = f + 1;
        if (ok && (p->tables[f] = view_ints(&p->views[f], table, 4, -1,
                                            "perceptron weights")) == NULL)
            ok = 0;
        Py_XDECREF(table);
        Py_XDECREF(bound);
        if (!ok)
            goto done;
        p->entries[f] = p->views[f].view.shape[0];
        if (p->entries[f] < 1) {
            PyErr_SetString(PyExc_ValueError, "empty perceptron weight table");
            goto done;
        }
        p->bits[f] = index_bits(p->entries[f]);
    }
    rc = 0;
done:
    Py_XDECREF(tables);
    Py_XDECREF(limits);
    return rc;
}

static void
perceptron_release(Perceptron *p)
{
    for (int f = 0; f < p->features; f++)
        view_release(&p->views[f]);
    p->features = 0;
}

static inline long long
perceptron_sum(const Perceptron *p, const Py_ssize_t *indices)
{
    long long total = 0;
    for (int f = 0; f < p->features; f++)
        total += p->tables[f][indices[f]];
    return total;
}

/* HashedPerceptron.train */
static void
perceptron_train(Perceptron *p, const Py_ssize_t *indices, int target, long long confidence)
{
    p->training_events++;
    int predicted = confidence >= 0;
    if (predicted == target)
        p->correct++;
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
    p->weight_updates++;
}

static int
perceptron_flush(Perceptron *p)
{
    if (add_attr(p->stats, S_predictions, p->predictions) < 0
        || add_attr(p->stats, S_positive_predictions, p->positive) < 0
        || add_attr(p->stats, S_training_events, p->training_events) < 0
        || add_attr(p->stats, S_correct_predictions, p->correct) < 0
        || add_attr(p->stats, S_weight_updates, p->weight_updates) < 0)
        return -1;
    p->predictions = p->positive = p->training_events = p->correct = 0;
    p->weight_updates = 0;
    return 0;
}

/* ------------------------------------------------------------------ */
/* IPCP (repro.prefetchers.ipcp.IPCPPrefetcher._step)                   */
/* ------------------------------------------------------------------ */

enum { CLASS_CS, CLASS_CPLX, CLASS_GS, CLASS_NL, CLASS_NONE, NUM_CLASSES };

typedef struct {
    View ip_view, cplx_view;
    int64_t *ip_last, *ip_stride, *ip_conf, *ip_sig, *cplx_stride, *cplx_conf;
    long long n, m, cs_degree, cplx_degree, gs_degree, nl_degree, cs_threshold;
    double gs_density;
    OrderedKeys regions; /* page FIFO, oldest first */
    uint64_t *touched;   /* per region slot: touched-block bitmask */
    int64_t *last_offset, *direction;
    int last_class;
    long long class_counts[NUM_CLASSES];
    int64_t *targets;
} IPCP;

static PyObject **
class_name(int cls)
{
    static PyObject **names[NUM_CLASSES] = {&S_cs, &S_cplx, &S_gs, &S_nl, &S_none};
    return names[cls];
}

static int
ipcp_load(IPCP *p, PyObject *obj)
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
    int64_t *ip, *cplx;
    if ((ip = attr_ints(&p->ip_view, obj, S__ip_buf, 8, 4 * p->n, "IPCP _ip_buf")) == NULL
        || (cplx = attr_ints(&p->cplx_view, obj, S__cplx_buf, 8, 2 * p->m,
                             "IPCP _cplx_buf")) == NULL)
        return -1;
    p->ip_last = ip;
    p->ip_stride = ip + p->n;
    p->ip_conf = ip + 2 * p->n;
    p->ip_sig = ip + 3 * p->n;
    p->cplx_stride = cplx;
    p->cplx_conf = cplx + p->m;
    long long most = 1;
    long long degrees[4] = {p->cs_degree, p->cplx_degree, p->gs_degree, p->nl_degree};
    for (int i = 0; i < 4; i++)
        most = degrees[i] > most ? degrees[i] : most;
    if (keys_init(&p->regions, (Py_ssize_t)cap) < 0
        || (p->touched = mem_calloc(cap, sizeof(uint64_t))) == NULL
        || (p->last_offset = mem_calloc(cap, sizeof(int64_t))) == NULL
        || (p->direction = mem_calloc(cap, sizeof(int64_t))) == NULL
        || (p->targets = mem_calloc(most, sizeof(int64_t))) == NULL)
        return -1;

    int rc = -1;
    PyObject *regions = attr_exact(obj, S__regions, &PyDict_Type, -1);
    PyObject *order = regions ? attr_exact(obj, S__region_order, &PyList_Type,
                                           PyDict_GET_SIZE(regions)) : NULL;
    PyObject *last = order ? PyObject_GetAttr(obj, S__last_class) : NULL;
    if (last == NULL)
        goto done;
    if (PyList_GET_SIZE(order) > cap) {
        PyErr_SetString(PyExc_ValueError, "IPCP holds more regions than region_entries");
        goto done;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(order); i++) {
        PyObject *page_obj = PyList_GET_ITEM(order, i);
        PyObject *region = PyDict_GetItemWithError(regions, page_obj);
        long long page, offset, direction;
        unsigned long long touched;
        if (region == NULL || !PyList_CheckExact(region) || PyList_GET_SIZE(region) != 3) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError, "IPCP regions must be [mask, offset, direction]");
            goto done;
        }
        touched = PyLong_AsUnsignedLongLong(PyList_GET_ITEM(region, 0));
        if ((touched == (unsigned long long)-1 && PyErr_Occurred())
            || as_ll(page_obj, &page) < 0
            || as_ll(PyList_GET_ITEM(region, 1), &offset) < 0
            || as_ll(PyList_GET_ITEM(region, 2), &direction) < 0)
            goto done;
        if (keys_find(&p->regions, page) >= 0) {
            PyErr_SetString(PyExc_ValueError, "IPCP region order repeats a page");
            goto done;
        }
        Py_ssize_t slot = keys_append(&p->regions, page);
        p->touched[slot] = touched;
        p->last_offset[slot] = offset;
        p->direction[slot] = direction;
    }
    p->last_class = -1;
    for (int cls = 0; cls < NUM_CLASSES; cls++) {
        int same = PyObject_RichCompareBool(last, *class_name(cls), Py_EQ);
        if (same < 0)
            goto done;
        if (same)
            p->last_class = cls;
    }
    if (p->last_class < 0) {
        PyErr_SetString(PyExc_ValueError, "unknown IPCP class");
        goto done;
    }
    rc = 0;
done:
    Py_XDECREF(regions);
    Py_XDECREF(order);
    Py_XDECREF(last);
    return rc;
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
    Py_ssize_t r = keys_find(&p->regions, page);
    if (r < 0) {
        r = keys_push(&p->regions, page);
        p->touched[r] = 0;
        p->last_offset[r] = -1;
        p->direction[r] = 1;
    }
    if (p->last_offset[r] >= 0 && offset != p->last_offset[r])
        p->direction[r] = offset > p->last_offset[r] ? 1 : -1;
    p->last_offset[r] = offset;
    p->touched[r] |= (uint64_t)1 << offset;

    Py_ssize_t count = 0;
    int64_t last_block = p->ip_last[key], stride;
    if (last_block >= 0 && (stride = block - last_block) != 0) {
        int64_t last_stride = p->ip_stride[key];
        int64_t confidence = p->ip_conf[key];
        int64_t signature = p->ip_sig[key];
        int64_t m = p->m, target;
        if (stride == last_stride && confidence >= p->cs_threshold) {
            p->class_counts[CLASS_CS]++;
            p->last_class = CLASS_CS;
            target = block;
            for (long long k = 0; k < p->cs_degree; k++) {
                if (add_checked(target, stride, &target) < 0
                    || (target > 0 && ipcp_emit(p, target, &count) < 0))
                    return -1;
            }
        }
        else if ((double)__builtin_popcountll(p->touched[r]) / 64.0 >= p->gs_density) {
            p->class_counts[CLASS_GS]++;
            p->last_class = CLASS_GS;
            target = block;
            for (long long k = 0; k < p->gs_degree; k++) {
                if (add_checked(target, p->direction[r], &target) < 0
                    || (target > 0 && ipcp_emit(p, target, &count) < 0))
                    return -1;
            }
        }
        else if (p->cplx_conf[py_mod(signature, m)] >= 2) {
            p->class_counts[CLASS_CPLX]++;
            p->last_class = CLASS_CPLX;
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
            p->class_counts[CLASS_NONE]++;
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
        p->class_counts[CLASS_NL]++;
        p->last_class = CLASS_NL;
        int64_t target = block;
        for (long long k = 0; k < p->nl_degree; k++) {
            if (add_checked(target, 1, &target) < 0 || ipcp_emit(p, target, &count) < 0)
                return -1;
        }
    }
    p->ip_last[key] = block;
    return count;
}

static int
ipcp_flush(IPCP *p, PyObject *obj)
{
    PyObject *counts = PyObject_GetAttr(obj, S_class_counts);
    if (counts == NULL)
        return -1;
    int rc = 0;
    for (int cls = 0; cls < NUM_CLASSES; cls++) {
        if (rc == 0 && add_item(counts, *class_name(cls), p->class_counts[cls]) < 0)
            rc = -1;
        p->class_counts[cls] = 0;
    }
    Py_DECREF(counts);
    return rc;
}

static int
ipcp_write_back(IPCP *p, PyObject *obj)
{
    PyObject *regions = PyObject_GetAttr(obj, S__regions);
    PyObject *order = regions ? PyObject_GetAttr(obj, S__region_order) : NULL;
    PyObject *pages = order ? PyList_New(0) : NULL;
    int rc = -1;
    if (pages == NULL)
        goto done;
    PyDict_Clear(regions);
    for (Py_ssize_t slot = p->regions.head; slot >= 0; slot = p->regions.next[slot]) {
        PyObject *page = PyLong_FromLongLong(p->regions.keys[slot]);
        PyObject *region = page ? Py_BuildValue("[KLL]", (unsigned long long)p->touched[slot],
                                                (long long)p->last_offset[slot],
                                                (long long)p->direction[slot]) : NULL;
        int ok = region && PyDict_SetItem(regions, page, region) == 0
                 && PyList_Append(pages, page) == 0;
        Py_XDECREF(page);
        Py_XDECREF(region);
        if (!ok)
            goto done;
    }
    if (PyList_SetSlice(order, 0, PY_SSIZE_T_MAX, pages) < 0
        || PyObject_SetAttr(obj, S__last_class, *class_name(p->last_class)) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(regions);
    Py_XDECREF(order);
    Py_XDECREF(pages);
    return rc;
}

static void
ipcp_release(IPCP *p)
{
    view_release(&p->ip_view);
    view_release(&p->cplx_view);
    keys_free(&p->regions);
    PyMem_Free(p->touched);
    PyMem_Free(p->last_offset);
    PyMem_Free(p->direction);
    PyMem_Free(p->targets);
    p->touched = NULL;
    p->targets = NULL;
    p->last_offset = p->direction = NULL;
}

/* ------------------------------------------------------------------ */
/* Insertion-ordered in-page delta counters (Berti)                    */
/* ------------------------------------------------------------------ */

/* Deltas between blocks of one 4KB page lie in -63..63.  A table entry's
 * delta -> count dict keeps its deltas and counts in insertion order in
 * small arrays, found through a per-delta position index. */
#define DELTA_SPAN 127

typedef struct {
    uint8_t at[DELTA_SPAN]; /* by delta + 63: 1 + position, 0 when absent */
    int8_t *delta;
    int32_t *count;
    int len, cap;
} Deltas;

static inline int
delta_in_page(long long delta)
{
    if (delta < -63 || delta > 63) {
        PyErr_SetString(PyExc_ValueError, "delta outside one page");
        return 0;
    }
    return 1;
}

/* Grow a pair of parallel arrays to hold ``need`` items. */
static int
grow(int8_t **small, void **wide, size_t wide_size, int *cap, int need)
{
    if (need <= *cap)
        return 0;
    int size = *cap ? 2 * *cap : 4;
    size = size < need ? need : size;
    size = size < DELTA_SPAN ? size : DELTA_SPAN;
    int8_t *grown_small = PyMem_Realloc(*small, size);
    if (grown_small == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *small = grown_small;
    void *grown_wide = PyMem_Realloc(*wide, size * wide_size);
    if (grown_wide == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *wide = grown_wide;
    *cap = size;
    return 0;
}

/* counts[delta] += 1 */
static inline int
deltas_bump(Deltas *d, int64_t delta)
{
    int at = d->at[delta + 63];
    if (at) {
        d->count[at - 1]++;
        return 0;
    }
    if (grow(&d->delta, (void **)&d->count, sizeof(int32_t), &d->cap, d->len + 1) < 0)
        return -1;
    d->delta[d->len] = (int8_t)delta;
    d->count[d->len] = 1;
    d->at[delta + 63] = (uint8_t)++d->len;
    return 0;
}

/* {delta: count // 2 for delta, count in counts.items() if count > 1};
 * returns the new sum. */
static int64_t
deltas_halve(Deltas *d)
{
    int kept = 0;
    int64_t total = 0;
    for (int i = 0; i < d->len; i++) {
        int8_t delta = d->delta[i];
        if (d->count[i] > 1) {
            d->delta[kept] = delta;
            d->count[kept] = d->count[i] / 2;
            total += d->count[kept];
            d->at[delta + 63] = (uint8_t)++kept;
        }
        else {
            d->at[delta + 63] = 0;
        }
    }
    d->len = kept;
    return total;
}

static void
deltas_free(Deltas *d)
{
    PyMem_Free(d->delta);
    PyMem_Free(d->count);
}

static int
deltas_load(Deltas *d, PyObject *dict)
{
    if (!PyDict_CheckExact(dict)) {
        PyErr_SetString(PyExc_TypeError, "delta counters must be dicts");
        return -1;
    }
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    while (PyDict_Next(dict, &pos, &key, &value)) {
        long long delta, count;
        if (as_ll(key, &delta) < 0 || as_ll(value, &count) < 0 || !delta_in_page(delta))
            return -1;
        if (count < INT32_MIN || count > INT32_MAX) {
            PyErr_SetString(PyExc_ValueError, "delta counter out of range");
            return -1;
        }
        if (deltas_bump(d, delta) < 0)
            return -1;
        d->count[d->at[delta + 63] - 1] = (int32_t)count;
    }
    return 0;
}

static PyObject *
deltas_dict(const Deltas *d)
{
    PyObject *dict = PyDict_New();
    for (int i = 0; dict != NULL && i < d->len; i++) {
        PyObject *key = PyLong_FromLong(d->delta[i]);
        PyObject *value = key ? PyLong_FromLong(d->count[i]) : NULL;
        if (value == NULL || PyDict_SetItem(dict, key, value) < 0)
            Py_CLEAR(dict);
        Py_XDECREF(key);
        Py_XDECREF(value);
    }
    return dict;
}

/* ------------------------------------------------------------------ */
/* Berti (repro.prefetchers.berti.BertiPrefetcher._step)                */
/* ------------------------------------------------------------------ */

typedef struct {
    int8_t *delta;
    double *coverage;
    int len, cap;
} Confirmed;

typedef struct {
    View page_view, total_view;
    int64_t *pages, *totals;
    long long n, relearn, max_degree;
    double low;
    int64_t *history; /* n x BertiHistoryDepth, oldest first */
    uint8_t *history_len;
    Deltas *hits;
    Confirmed *confirmed;
    uint8_t *dirty; /* entries to write back */
    int64_t targets[DELTA_SPAN];
} Berti;

static int
berti_load(Berti *b, PyObject *obj)
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
    if ((b->pages = attr_ints(&b->page_view, obj, S__page_buf, 8, b->n, "Berti _page_buf")) == NULL
        || (b->totals = attr_ints(&b->total_view, obj, S__total_buf, 8, b->n,
                                  "Berti _total_buf")) == NULL
        || (b->history = mem_calloc(b->n * BertiHistoryDepth, sizeof(int64_t))) == NULL
        || (b->history_len = mem_calloc(b->n, 1)) == NULL
        || (b->hits = mem_calloc(b->n, sizeof(Deltas))) == NULL
        || (b->confirmed = mem_calloc(b->n, sizeof(Confirmed))) == NULL
        || (b->dirty = mem_calloc(b->n, 1)) == NULL)
        return -1;
    int rc = -1;
    PyObject *histories = attr_exact(obj, S__histories, &PyList_Type, b->n);
    PyObject *hits = histories ? attr_exact(obj, S__delta_hits, &PyList_Type, b->n) : NULL;
    PyObject *confirmed = hits ? attr_exact(obj, S__confirmed, &PyList_Type, b->n) : NULL;
    if (confirmed == NULL)
        goto done;
    for (Py_ssize_t key = 0; key < b->n; key++) {
        PyObject *history = PyList_GET_ITEM(histories, key);
        PyObject *deltas = PyList_GET_ITEM(confirmed, key);
        if (!PyList_CheckExact(history) || PyList_GET_SIZE(history) > BertiHistoryDepth
            || !PyList_CheckExact(deltas) || PyList_GET_SIZE(deltas) > DELTA_SPAN) {
            PyErr_SetString(PyExc_ValueError, "Berti history or confirmed list out of range");
            goto done;
        }
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(history); i++) {
            long long block;
            if (as_ll(PyList_GET_ITEM(history, i), &block) < 0)
                goto done;
            if ((block >> 6) != b->pages[key]) {
                PyErr_SetString(PyExc_ValueError, "Berti history leaves its page");
                goto done;
            }
            b->history[key * BertiHistoryDepth + i] = block;
        }
        b->history_len[key] = (uint8_t)PyList_GET_SIZE(history);
        if (deltas_load(&b->hits[key], PyList_GET_ITEM(hits, key)) < 0)
            goto done;
        Confirmed *c = &b->confirmed[key];
        if (grow(&c->delta, (void **)&c->coverage, sizeof(double), &c->cap,
                 (int)PyList_GET_SIZE(deltas)) < 0)
            goto done;
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(deltas); i++) {
            long long delta;
            double coverage;
            if (!PyArg_ParseTuple(PyList_GET_ITEM(deltas, i), "Ld", &delta, &coverage)
                || !delta_in_page(delta))
                goto done;
            c->delta[c->len] = (int8_t)delta;
            c->coverage[c->len++] = coverage;
        }
    }
    rc = 0;
done:
    Py_XDECREF(histories);
    Py_XDECREF(hits);
    Py_XDECREF(confirmed);
    return rc;
}

/* _promote_deltas: the confirmed list from the counters, then aging. */
static int
berti_promote(Berti *b, int64_t key, int64_t total)
{
    Deltas *d = &b->hits[key];
    Confirmed *c = &b->confirmed[key];
    c->len = 0;
    if (total > 0) {
        if (grow(&c->delta, (void **)&c->coverage, sizeof(double), &c->cap, d->len) < 0)
            return -1;
        for (int i = 0; i < d->len; i++) {
            double coverage = (double)d->count[i] / (double)total;
            if (coverage >= b->low) {
                c->delta[c->len] = d->delta[i];
                c->coverage[c->len++] = coverage < 1.0 ? coverage : 1.0;
            }
        }
    }
    /* Stable sort by descending coverage. */
    for (int i = 1; i < c->len; i++) {
        int8_t delta = c->delta[i];
        double coverage = c->coverage[i];
        int j = i;
        for (; j > 0 && c->coverage[j - 1] < coverage; j--) {
            c->delta[j] = c->delta[j - 1];
            c->coverage[j] = c->coverage[j - 1];
        }
        c->delta[j] = delta;
        c->coverage[j] = coverage;
    }
    deltas_halve(d);
    b->totals[key] = py_half(total);
    return 0;
}

/* One access; leaves the target addresses in b->targets and returns their
 * count, or -1. */
static Py_ssize_t
berti_step(Berti *b, int64_t pc, int64_t vaddr)
{
    int64_t key = py_mod(pc, b->n), block = vaddr >> 6, page = vaddr >> 12;
    int64_t *history = b->history + key * BertiHistoryDepth;
    b->dirty[key] = 1;
    if (b->pages[key] != page) {
        /* New page for this PC: the local-delta history restarts. */
        b->pages[key] = page;
        b->history_len[key] = 0;
    }
    int64_t total = b->totals[key];
    int len = b->history_len[key];
    if (len) {
        uint64_t seen[2] = {0, 0};
        for (int i = 0; i < len; i++) {
            int64_t delta = block - history[i];
            if (delta == 0)
                continue;
            int at = (int)delta + 63;
            if ((seen[at >> 6] >> (at & 63)) & 1)
                continue;
            seen[at >> 6] |= (uint64_t)1 << (at & 63);
            if (deltas_bump(&b->hits[key], delta) < 0)
                return -1;
        }
        total += 1;
    }
    if (len == BertiHistoryDepth) {
        memmove(history, history + 1, (len - 1) * sizeof(int64_t));
        history[len - 1] = block;
    }
    else {
        history[len] = block;
        b->history_len[key] = (uint8_t)(len + 1);
    }
    if (total >= b->relearn) {
        if (berti_promote(b, key, total) < 0)
            return -1;
    }
    else {
        b->totals[key] = total;
    }

    /* confirmed[:max_prefetch_degree] */
    Confirmed *c = &b->confirmed[key];
    long long limit = b->max_degree >= 0 ? b->max_degree : c->len + b->max_degree;
    if (limit > c->len)
        limit = c->len;
    Py_ssize_t count = 0;
    for (long long i = 0; i < limit; i++) {
        int64_t target = block + c->delta[i];
        if (target > 0 && block_address(target, &b->targets[count++]) < 0)
            return -1;
    }
    return count;
}

static int
berti_write_back(Berti *b, PyObject *obj)
{
    int rc = -1;
    PyObject *histories = PyObject_GetAttr(obj, S__histories);
    PyObject *hits = histories ? PyObject_GetAttr(obj, S__delta_hits) : NULL;
    PyObject *confirmed = hits ? PyObject_GetAttr(obj, S__confirmed) : NULL;
    if (confirmed == NULL)
        goto done;
    for (Py_ssize_t key = 0; key < b->n; key++) {
        if (!b->dirty[key])
            continue;
        int len = b->history_len[key];
        PyObject *blocks = PyList_New(len);
        for (int i = 0; blocks != NULL && i < len; i++) {
            PyObject *block = PyLong_FromLongLong(b->history[key * BertiHistoryDepth + i]);
            if (block == NULL)
                Py_CLEAR(blocks);
            else
                PyList_SET_ITEM(blocks, i, block);
        }
        Confirmed *c = &b->confirmed[key];
        PyObject *deltas = blocks ? PyList_New(c->len) : NULL;
        for (int i = 0; deltas != NULL && i < c->len; i++) {
            PyObject *item = Py_BuildValue("(id)", (int)c->delta[i], c->coverage[i]);
            if (item == NULL)
                Py_CLEAR(deltas);
            else
                PyList_SET_ITEM(deltas, i, item);
        }
        PyObject *counts = deltas ? deltas_dict(&b->hits[key]) : NULL;
        PyObject *history = PyList_GET_ITEM(histories, key);
        int ok = counts != NULL
                 && PyList_SetSlice(history, 0, PY_SSIZE_T_MAX, blocks) == 0
                 && PyList_SetItem(hits, key, Py_NewRef(counts)) == 0
                 && PyList_SetItem(confirmed, key, Py_NewRef(deltas)) == 0;
        Py_XDECREF(blocks);
        Py_XDECREF(deltas);
        Py_XDECREF(counts);
        if (!ok)
            goto done;
    }
    rc = 0;
done:
    Py_XDECREF(histories);
    Py_XDECREF(hits);
    Py_XDECREF(confirmed);
    return rc;
}

static void
berti_release(Berti *b)
{
    view_release(&b->page_view);
    view_release(&b->total_view);
    for (long long key = 0; b->hits != NULL && key < b->n; key++)
        deltas_free(&b->hits[key]);
    for (long long key = 0; b->confirmed != NULL && key < b->n; key++) {
        PyMem_Free(b->confirmed[key].delta);
        PyMem_Free(b->confirmed[key].coverage);
    }
    PyMem_Free(b->history);
    PyMem_Free(b->history_len);
    PyMem_Free(b->hits);
    PyMem_Free(b->confirmed);
    PyMem_Free(b->dirty);
    b->history = NULL;
    b->history_len = b->dirty = NULL;
    b->hits = NULL;
    b->confirmed = NULL;
}

/* ------------------------------------------------------------------ */
/* SPP (repro.prefetchers.spp.SPPPrefetcher.step)                       */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t block, signature, delta, depth;
    int fill_l2;
    double confidence;
} Prediction;

/* The pattern table is SPPPrefetcher's own flat arrays, used in place; the
 * signature FIFO is copied in and written back. */
typedef struct {
    View views[6];
    uint8_t *counts, *lengths, *totals, *best_count; /* best_count 0: no memo */
    int8_t *deltas, *best_delta;
    long long m, max_depth;
    double lookahead_confidence, l2_fill_confidence;
    OrderedKeys signatures; /* page FIFO, oldest first */
    int64_t *packed;        /* per signature slot: (signature << 6) | offset */
    long long lookahead_prefetches;
    Prediction *predictions;
} SPP;

static int
spp_load(SPP *p, PyObject *obj)
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
        || keys_init(&p->signatures, (Py_ssize_t)cap) < 0
        || (p->packed = mem_calloc(cap, sizeof(int64_t))) == NULL
        || (p->predictions = mem_calloc(p->max_depth, sizeof(Prediction))) == NULL)
        return -1;
    int rc = -1;
    PyObject *signatures = attr_exact(obj, S__signatures, &PyDict_Type, -1);
    PyObject *order = signatures ? attr_exact(obj, S__signature_order, &PyList_Type,
                                              PyDict_GET_SIZE(signatures)) : NULL;
    if (order == NULL)
        goto done;
    if (PyList_GET_SIZE(order) > cap) {
        PyErr_SetString(PyExc_ValueError, "SPP holds more signatures than its table");
        goto done;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(order); i++) {
        PyObject *page_obj = PyList_GET_ITEM(order, i);
        PyObject *packed = PyDict_GetItemWithError(signatures, page_obj);
        long long page, value;
        if (packed == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "SPP signature order and table differ");
            goto done;
        }
        if (as_ll(page_obj, &page) < 0 || as_ll(packed, &value) < 0)
            goto done;
        if (keys_find(&p->signatures, page) >= 0) {
            PyErr_SetString(PyExc_ValueError, "SPP signature order repeats a page");
            goto done;
        }
        p->packed[keys_append(&p->signatures, page)] = value;
    }
    rc = 0;
done:
    Py_XDECREF(signatures);
    Py_XDECREF(order);
    return rc;
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
    Py_ssize_t slot = keys_find(&p->signatures, page);
    if (slot < 0) {
        p->packed[keys_push(&p->signatures, page)] = offset; /* signature 0 */
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
            p->lookahead_prefetches++;
        signature = spp_signature(signature, predicted_delta);
    }
    return count;
}

/* Hand the signature FIFO back to its dict and order list. */
static int
spp_write_back(SPP *p, PyObject *obj)
{
    int rc = -1;
    PyObject *signatures = PyObject_GetAttr(obj, S__signatures);
    PyObject *order = signatures ? PyObject_GetAttr(obj, S__signature_order) : NULL;
    PyObject *pages = order ? PyList_New(0) : NULL;
    if (pages == NULL)
        goto done;
    PyDict_Clear(signatures);
    for (Py_ssize_t slot = p->signatures.head; slot >= 0; slot = p->signatures.next[slot]) {
        PyObject *page = PyLong_FromLongLong(p->signatures.keys[slot]);
        PyObject *packed = page ? PyLong_FromLongLong(p->packed[slot]) : NULL;
        int ok = packed && PyDict_SetItem(signatures, page, packed) == 0
                 && PyList_Append(pages, page) == 0;
        Py_XDECREF(page);
        Py_XDECREF(packed);
        if (!ok)
            goto done;
    }
    rc = PyList_SetSlice(order, 0, PY_SSIZE_T_MAX, pages);
done:
    Py_XDECREF(signatures);
    Py_XDECREF(order);
    Py_XDECREF(pages);
    return rc;
}

static void
spp_release(SPP *p)
{
    for (int i = 0; i < 6; i++)
        view_release(&p->views[i]);
    keys_free(&p->signatures);
    PyMem_Free(p->packed);
    PyMem_Free(p->predictions);
    p->packed = NULL;
    p->predictions = NULL;
}

/* ------------------------------------------------------------------ */
/* PPF (PerceptronPrefetchFilter.consult_step)                         */
/* ------------------------------------------------------------------ */

#define PPF_FEATURES 9

typedef struct {
    View view;
    int32_t *weights; /* PPF_FEATURES rows of ``entries`` weights */
    long long entries;
    int bits;
    double issue_threshold;
    long long consultations, accepted, rejected;
} PPF;

static int
ppf_load(PPF *p, PyObject *obj)
{
    long long bits;
    if (get_ll(obj, S_table_entries, &p->entries) < 0 || get_ll(obj, S__index_bits, &bits) < 0
        || get_double(obj, S_issue_threshold, &p->issue_threshold) < 0)
        return -1;
    if (p->entries < 1 || bits != index_bits((Py_ssize_t)p->entries)) {
        PyErr_SetString(PyExc_ValueError, "PPF table size and index bits disagree");
        return -1;
    }
    p->bits = (int)bits;
    p->weights = attr_ints(&p->view, obj, S__weights, 4, PPF_FEATURES * p->entries,
                           "PPF _weights");
    return p->weights == NULL ? -1 : 0;
}

/* Score one SPP candidate: the weight-table indices go to ``indices``, the
 * confidence to ``*confidence``; returns the issue decision. */
static int
ppf_consult(PPF *p, int64_t pc, const Prediction *candidate, Py_ssize_t *indices,
            long long *confidence)
{
    p->consultations++;
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
    long long total = 0;
    for (int f = 0; f < PPF_FEATURES; f++) {
        indices[f] = table_slot(values[f], p->bits, (Py_ssize_t)p->entries);
        total += p->weights[f * p->entries + indices[f]];
    }
    *confidence = total;
    int issue = (double)total >= p->issue_threshold;
    if (issue)
        p->accepted++;
    else
        p->rejected++;
    return issue;
}

static int
ppf_flush(PPF *p, PyObject *obj)
{
    if (add_attr(obj, S_consultations, p->consultations) < 0
        || add_attr(obj, S_accepted, p->accepted) < 0
        || add_attr(obj, S_rejected, p->rejected) < 0)
        return -1;
    p->consultations = p->accepted = p->rejected = 0;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Feature history (repro.predictors.features.FeatureHistory)          */
/* ------------------------------------------------------------------ */

/* The Table I features, shared by FLP/Hermes (virtual addresses) and SLP
 * (physical addresses). */
#define NUM_FEATURES 5
#define PC_HISTORY 4

typedef struct {
    PyObject *obj;     /* the FeatureHistory */
    OrderedKeys pages; /* the page buffer, least recent first */
    int64_t pcs[PC_HISTORY];
    int npcs;
} History;

/* Copy a FeatureHistory's page buffer and last-4 PCs. */
static int
history_load(History *h, PyObject *obj)
{
    long long capacity, pc_window;
    h->obj = Py_NewRef(obj);
    if (get_ll(obj, S_page_buffer_entries, &capacity) < 0
        || get_ll(obj, S_pc_history_length, &pc_window) < 0)
        return -1;
    if (capacity < 1 || pc_window != PC_HISTORY) {
        PyErr_SetString(PyExc_ValueError, "feature history outside the modelled shape");
        return -1;
    }
    if (keys_init(&h->pages, (Py_ssize_t)capacity) < 0)
        return -1;
    int rc = -1;
    PyObject *buffer = PyObject_GetAttr(obj, S__page_buffer);
    PyObject *pages = buffer ? PySequence_List(buffer) : NULL;
    PyObject *pcs_obj = pages ? PyObject_GetAttr(obj, S__pc_history) : NULL;
    PyObject *pcs = pcs_obj ? PySequence_List(pcs_obj) : NULL;
    if (pcs == NULL)
        goto done;
    if (PyList_GET_SIZE(pages) > capacity || PyList_GET_SIZE(pcs) > PC_HISTORY) {
        PyErr_SetString(PyExc_ValueError, "feature history exceeds its capacity");
        goto done;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(pages); i++) {
        long long page;
        if (as_ll(PyList_GET_ITEM(pages, i), &page) < 0)
            goto done;
        keys_append(&h->pages, page);
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(pcs); i++) {
        long long pc;
        if (as_ll(PyList_GET_ITEM(pcs, i), &pc) < 0)
            goto done;
        h->pcs[h->npcs++] = pc;
    }
    rc = 0;
done:
    Py_XDECREF(buffer);
    Py_XDECREF(pages);
    Py_XDECREF(pcs_obj);
    Py_XDECREF(pcs);
    return rc;
}

/* The Table I feature values of an access at (pc, addr), as the extractors
 * compute them from FeatureHistory.context, then FeatureHistory.observe. */
static void
history_step(History *h, int64_t pc, int64_t addr, uint64_t *values)
{
    int64_t page = addr >> 12;
    Py_ssize_t slot = keys_find(&h->pages, page);
    uint64_t first = slot < 0, offset = ((uint64_t)addr >> 6) & 63;
    uint64_t pcs_hash = 0;
    if (h->npcs) {
        pcs_hash = 0x9E3779B9ull;
        for (int i = 0; i < h->npcs; i++)
            pcs_hash = hash_step(pcs_hash, (uint64_t)h->pcs[i]);
    }
    values[0] = (uint64_t)pc ^ (offset << 2);
    values[1] = (uint64_t)pc ^ (((uint64_t)addr & 63) << 2);
    values[2] = hash_pair((uint64_t)pc, first);
    values[3] = hash_pair(offset, first);
    values[4] = pcs_hash;

    if (slot >= 0)
        keys_move_to_end(&h->pages, slot);
    else
        keys_push(&h->pages, page);
    if (h->npcs == PC_HISTORY) {
        memmove(h->pcs, h->pcs + 1, (PC_HISTORY - 1) * sizeof(int64_t));
        h->pcs[PC_HISTORY - 1] = pc;
    }
    else {
        h->pcs[h->npcs++] = pc;
    }
}

/* Hand the page buffer (in LRU order) and the PC history back. */
static int
history_write_back(History *h)
{
    int rc = -1;
    PyObject *buffer = PyObject_GetAttr(h->obj, S__page_buffer);
    PyObject *pcs = buffer ? PyObject_GetAttr(h->obj, S__pc_history) : NULL;
    PyObject *recent = pcs ? PyList_New(h->npcs) : NULL;
    if (recent == NULL || discard(PyObject_CallMethodNoArgs(buffer, S_clear)) < 0)
        goto done;
    for (Py_ssize_t slot = h->pages.head; slot >= 0; slot = h->pages.next[slot]) {
        PyObject *page = PyLong_FromLongLong(h->pages.keys[slot]);
        int ok = page && PyObject_SetItem(buffer, page, Py_None) == 0;
        Py_XDECREF(page);
        if (!ok)
            goto done;
    }
    for (int i = 0; i < h->npcs; i++) {
        PyObject *pc = PyLong_FromLongLong(h->pcs[i]);
        if (pc == NULL)
            goto done;
        PyList_SET_ITEM(recent, i, pc);
    }
    if (discard(PyObject_CallMethodNoArgs(pcs, S_clear)) < 0
        || discard(PyObject_CallMethodOneArg(pcs, S_extend, recent)) < 0
        || PyObject_SetAttr(h->obj, S__pcs_tuple, Py_None) < 0
        || PyObject_SetAttr(h->obj, S__pcs_hash, Py_None) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(buffer);
    Py_XDECREF(pcs);
    Py_XDECREF(recent);
    return rc;
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
    long long consultations, issued, discarded;
} SLP;

static int
slp_load(SLP *s, PyObject *obj)
{
    PyObject *perceptron = PyObject_GetAttr(obj, S_perceptron);
    if (perceptron == NULL)
        return -1;
    int bound = perceptron_init(&s->p, perceptron, SLP_FEATURES);
    Py_DECREF(perceptron);
    if (bound < 0 || get_double(obj, S_tau_pref, &s->tau_pref) < 0
        || get_truth(obj, S_use_leveling_feature, &s->leveling) < 0)
        return -1;
    PyObject *history = PyObject_GetAttr(obj, S_history);
    if (history == NULL)
        return -1;
    int rc = history_load(&s->history, history);
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
    s->consultations++;
    uint64_t values[SLP_FEATURES];
    history_step(&s->history, pc, paddr, values);
    values[NUM_FEATURES] = hash_pair(s->leveling && trigger_prediction,
                                     ((uint64_t)paddr >> 6) & 63);
    Perceptron *p = &s->p;
    for (int f = 0; f < SLP_FEATURES; f++)
        indices[f] = table_slot(values[f], p->bits[f], p->entries[f]);
    long long total = perceptron_sum(p, indices);
    *confidence = total;
    p->predictions++;
    if (total >= 0)
        p->positive++;
    int issue = (double)total < s->tau_pref;
    if (issue)
        s->issued++;
    else
        s->discarded++;
    return issue;
}

static int
slp_flush(SLP *s, PyObject *obj)
{
    if (perceptron_flush(&s->p) < 0 || add_attr(obj, S_consultations, s->consultations) < 0
        || add_attr(obj, S_issued, s->issued) < 0 || add_attr(obj, S_discarded, s->discarded) < 0)
        return -1;
    s->consultations = s->issued = s->discarded = 0;
    return 0;
}

static void
slp_release(SLP *s)
{
    perceptron_release(&s->p);
    keys_free(&s->history.pages);
}

/* ------------------------------------------------------------------ */
/* Page table (repro.memory.paging.PageTable)                          */
/* ------------------------------------------------------------------ */

/* The page table's Python containers, and a C table of the mappings seen so
 * far (open addressing, linear probing; frame -1 marks a free slot).  A
 * mapping is never removed or changed, so the C table cannot go stale. */
typedef struct {
    PyObject *obj, *mapping, *allocated; /* PageTable, _mapping, _allocated_frames */
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
frames_free(PageTable *t)
{
    PyMem_Free(t->vpages);
    PyMem_Free(t->frames);
    t->vpages = t->frames = NULL;
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
    t->obj = Py_NewRef(obj);
    if ((t->mapping = PyObject_GetAttr(obj, S__mapping)) == NULL
        || (t->allocated = PyObject_GetAttr(obj, S__allocated_frames)) == NULL
        || get_ll(obj, S_core_id, &t->core_id) < 0
        || get_ll(obj, S_memory_frames, &t->memory_frames) < 0)
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

enum { PK_NULL = 0, PK_HERMES = 1, PK_FLP = 2 };
/* L1D prefetcher kernels. */
enum { PF_NONE = 0, PF_IPCP = 1, PF_BERTI = 2 };
enum { LEVEL_L1D = 0, LEVEL_L2C = 1, LEVEL_LLC = 2, LEVEL_DRAM = 3 };

#define CACHE_OBJECTS(X) X(stats) X(listener)

/* Bits of a cache slot's flags byte (repro.memory.cache). */
enum { F_DIRTY = 1, F_PREFETCHED = 2, F_USEFUL = 4 };

/* One cache level: its flat state arrays, used in place. */
typedef struct {
#define DECLARE_FIELD(n) PyObject *n;
    CACHE_OBJECTS(DECLARE_FIELD)
#undef DECLARE_FIELD
    View views[7];
    int64_t *tags, *stamps, *ready, *set_fill, *clock;
    uint8_t *flags;
    int8_t *source;
    int level;
    long long num_sets, ways, latency;
    /* Chunk-local counters, added to ``stats`` at the end of each chunk. */
    long long accesses, hits, misses, pf_hits;
    long long prefetch_fills, demand_fills, evictions, writebacks;
    long long useful_evictions, useless_evictions;
} CacheState;

#define STEPPER_OBJECTS(X)                                                    \
    X(runner) X(hierarchy) X(hstats) X(sample_hook) X(resolve_l2)             \
    X(pending_l1) X(pending_l2c) X(predictor) X(dram) X(dram_stats)           \
    X(retire_deque) X(prefetcher) X(l2_prefetcher) X(l1_filter) X(l2_filter)

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
    Py_ssize_t total, chunk_records, pos, chunk_stop;
    int kind_non_mem;

    PageTable pages;

    /* Off-chip predictor: weight tables and feature history. */
    int predictor_kind;
    Perceptron flp;
    History history;
    double activation_threshold, tau_high, tau_low;
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

    /* Core timing: the ROB's retire times as a ring buffer. */
    double *retire;
    Py_ssize_t retire_cap, retire_head, retire_len, rob_size;
    double dispatch_interval, dispatch_cycle, last_retire;
    long long instructions, loads, stores;
    double total_load_latency;
    int pending; /* a load/store at ``pos`` was yielded, not yet performed */
    double pending_dispatch;
    int in_chunk, finished;

    /* Sampling. */
    long long sample_interval, next_sample;

    /* Chunk-local counters. */
    long long flp_immediate, flp_delayed, flp_negative;
    long long demand_loads, demand_stores, offchip_predictions;
    long long speculative_requests, delayed_speculative, delayed_saved;
    long long l1_pf_candidates, l1_pf_dropped_resident, l1_pf_filtered;
    long long l1_pf_dropped_queue, l1_pf_issued;
    long long l2_pf_candidates, l2_pf_dropped_resident, l2_pf_filtered;
    long long l2_pf_dropped_queue, l2_pf_issued;
    long long useful_l1_prefetches, useless_l1_prefetches;
    long long served[4], pf_served[4], prediction_location[4];
    long long accurate_source[4], inaccurate_source[4];
    long long dram_transactions, dram_demand, dram_speculative;
    long long dram_l1d_prefetch, dram_l2c_prefetch;
    long long dram_queue_cycles, dram_max_queue;
} Stepper;

/* ------------------------------------------------------------------ */
/* One cache level                                                     */
/* ------------------------------------------------------------------ */

static int
cache_init(CacheState *c, PyObject *cache, int level)
{
    c->level = level;
    if ((c->stats = PyObject_GetAttr(cache, S_stats)) == NULL
        || (c->listener = PyObject_GetAttr(cache, S__eviction_listener)) == NULL)
        return -1;
    if (c->listener == Py_None)
        Py_CLEAR(c->listener);
    if (get_ll(cache, S_num_sets, &c->num_sets) < 0
        || get_ll(cache, S_associativity, &c->ways) < 0
        || get_ll(cache, S_latency, &c->latency) < 0)
        return -1;
    Py_ssize_t slots = c->num_sets * c->ways;
    View *v = c->views;
    if ((c->tags = state_array(v++, cache, S__tags, 'q', slots, "cache")) == NULL
        || (c->stamps = state_array(v++, cache, S__stamps, 'q', slots, "cache")) == NULL
        || (c->ready = state_array(v++, cache, S__ready, 'q', slots, "cache")) == NULL
        || (c->flags = state_array(v++, cache, S__flags, 'B', slots, "cache")) == NULL
        || (c->source = state_array(v++, cache, S__source, 'b', slots, "cache")) == NULL
        || (c->set_fill = state_array(v++, cache, S__set_fill, 'q', c->num_sets, "cache")) == NULL
        || (c->clock = state_array(v++, cache, S__clock, 'q', 1, "cache")) == NULL)
        return -1;
    return 0;
}

static void
cache_release(CacheState *c)
{
    for (int i = 0; i < 7; i++)
        view_release(&c->views[i]);
}

/* The slot holding ``block`` (Cache.find), or -1. */
static inline Py_ssize_t
cache_find(const CacheState *c, long long block)
{
    Py_ssize_t set_idx = (Py_ssize_t)(block % c->num_sets);
    Py_ssize_t base = set_idx * c->ways, end = base + c->set_fill[set_idx];
    for (Py_ssize_t slot = base; slot < end; slot++) {
        if (c->tags[slot] == block)
            return slot;
    }
    return -1;
}

/* Demand lookup (Cache.lookup plus the ready-cycle wait of the walk).
 * Returns 1 on a hit, 0 on a miss; *latency grows to the remaining fill
 * time of an in-flight block, *prefetch_hit reports a first demand use of a
 * prefetched block. */
static int
cache_lookup(CacheState *c, long long block, long long cycle, int is_write,
             long long *latency, int *prefetch_hit)
{
    c->accesses++;
    Py_ssize_t slot = cache_find(c, block);
    if (slot < 0) {
        c->misses++;
        *prefetch_hit = 0;
        return 0;
    }
    c->hits++;
    long long ready = c->ready[slot];
    if (ready > cycle && ready - cycle > *latency)
        *latency = ready - cycle;
    int flags = c->flags[slot];
    *prefetch_hit = (flags & (F_PREFETCHED | F_USEFUL)) == F_PREFETCHED;
    if (*prefetch_hit) {
        flags |= F_USEFUL;
        c->pf_hits++;
    }
    if (is_write)
        flags |= F_DIRTY;
    c->flags[slot] = (uint8_t)flags;
    c->stamps[slot] = ++*c->clock;
    return 1;
}

/* MemoryHierarchy._finalize_l1d_prefetch */
static int
finalize_l1_prefetch(Stepper *s, PyObject *record, int useful)
{
    PyObject *served = slot_get(record, PR_served_by);
    if (served == NULL)
        return -1;
    long level = PyLong_AsLong(served);
    if (level < 0 || level > 3) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "prefetch record served by no level");
        return -1;
    }
    slot_set(record, PR_useful, py_bool(useful));
    if (useful) {
        s->useful_l1_prefetches++;
        s->accurate_source[level]++;
    }
    else {
        s->useless_l1_prefetches++;
        s->inaccurate_source[level]++;
    }
    return 0;
}

/* pending_l1d_prefetches.pop(block) finalized as ``useful``, if present
 * (_resolve_l1d_prefetch_use and the L1D eviction listener). */
static int
resolve_l1_prefetch(Stepper *s, long long block, int useful)
{
    if (PyDict_GET_SIZE(s->pending_l1) == 0)
        return 0;
    PyObject *key = PyLong_FromLongLong(block);
    if (key == NULL)
        return -1;
    int rc = 0;
    PyObject *record = PyDict_GetItemWithError(s->pending_l1, key);
    if (record != NULL) {
        Py_INCREF(record);
        rc = PyDict_DelItem(s->pending_l1, key);
        if (rc == 0)
            rc = finalize_l1_prefetch(s, record, useful);
        Py_DECREF(record);
    }
    else if (PyErr_Occurred()) {
        rc = -1;
    }
    Py_DECREF(key);
    return rc;
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

/* The eviction listeners: the L1D's is inlined, the L2C's Python one runs
 * only when it has a pending PPF record to train. */
static int
evicted(Stepper *s, CacheState *c, long long block, int flags)
{
    if (c->listener == NULL)
        return 0;
    int was_prefetched = (flags & F_PREFETCHED) != 0, was_useful = (flags & F_USEFUL) != 0;
    if (c->level == LEVEL_L1D)
        return was_prefetched ? resolve_l1_prefetch(s, block, was_useful) : 0;
    if (c->level == LEVEL_L2C && (!was_prefetched || was_useful))
        return 0;
    PyObject *key = PyLong_FromLongLong(block);
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
 * drives); ``source`` is the prefetch source level (-1 for None). */
static int
cache_fill(Stepper *s, CacheState *c, long long block, long long ready, int prefetched,
           int source)
{
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
    Py_ssize_t set_idx = (Py_ssize_t)(block % c->num_sets);
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
        c->evictions++;
        if (flags & F_DIRTY)
            c->writebacks++;
        if (flags & F_PREFETCHED) {
            if (flags & F_USEFUL)
                c->useful_evictions++;
            else
                c->useless_evictions++;
        }
        if (evicted(s, c, c->tags[slot], flags) < 0)
            return -1;
    }
    c->tags[slot] = block;
    c->ready[slot] = ready;
    c->flags[slot] = prefetched ? F_PREFETCHED : 0;
    c->source[slot] = (int8_t)source;
    c->stamps[slot] = ++*c->clock;
    if (prefetched)
        c->prefetch_fills++;
    else
        c->demand_fills++;
    return 0;
}

static int
cache_flush(CacheState *c)
{
    PyObject *stats = c->stats;
    if (add_attr(stats, S_demand_accesses, c->accesses) < 0
        || add_attr(stats, S_demand_hits, c->hits) < 0
        || add_attr(stats, S_demand_misses, c->misses) < 0
        || add_attr(stats, S_prefetch_hits, c->pf_hits) < 0
        || add_attr(stats, S_prefetch_fills, c->prefetch_fills) < 0
        || add_attr(stats, S_demand_fills, c->demand_fills) < 0
        || add_attr(stats, S_evictions, c->evictions) < 0
        || add_attr(stats, S_writebacks, c->writebacks) < 0
        || add_attr(stats, S_useful_prefetch_evictions, c->useful_evictions) < 0
        || add_attr(stats, S_useless_prefetch_evictions, c->useless_evictions) < 0)
        return -1;
    c->accesses = c->hits = c->misses = c->pf_hits = 0;
    c->prefetch_fills = c->demand_fills = c->evictions = c->writebacks = 0;
    c->useful_evictions = c->useless_evictions = 0;
    return 0;
}

/* ------------------------------------------------------------------ */
/* DRAM and translation                                                */
/* ------------------------------------------------------------------ */

/* DRAMModel.access: one transaction issued at ``issue_at``, counted in
 * ``*counter``; returns the latency until the data. */
static long long
dram_access(Stepper *s, long long issue_at, long long *counter)
{
    double delay = *s->busy_until - (double)issue_at;
    if (delay < 0.0)
        delay = 0.0;
    *s->busy_until = (double)issue_at + delay + s->cycles_per_transaction;
    s->dram_transactions++;
    (*counter)++;
    long long queue_cycles = (long long)delay;
    s->dram_queue_cycles += queue_cycles;
    if (queue_cycles > s->dram_max_queue)
        s->dram_max_queue = queue_cycles;
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
    if (add_attr(t->obj, S_page_faults, 1) < 0)
        return -1;
    int64_t candidate = (int64_t)(
        jenkins32(((uint64_t)vpage << 4) ^ ((uint64_t)t->core_id * 0x9E3779B1ull))
        % (uint64_t)t->memory_frames);
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
        candidate = (candidate + 1) % t->memory_frames;
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
        s->l2_pf_candidates++;
        if (cache_find(&s->l2, pblock) >= 0) {
            s->l2_pf_dropped_resident++;
            continue;
        }
        if (s->have_ppf && !ppf_consult(&s->ppf, pc, prediction, indices, &confidence)) {
            s->l2_pf_filtered++;
            continue;
        }
        long long fill_latency = s->l2.latency + s->llc.latency;
        if (cache_find(&s->llc, pblock) < 0) {
            if (dram_backed_up(s, cycle)) {
                s->l2_pf_dropped_queue++;
                continue;
            }
            fill_latency += dram_access(s, cycle, &s->dram_l2c_prefetch);
            if (cache_fill(s, &s->llc, pblock, cycle + fill_latency, 1, LEVEL_DRAM) < 0)
                return -1;
        }
        s->l2_pf_issued++;
        if (prediction->fill_l2
            && cache_fill(s, &s->l2, pblock, cycle + fill_latency, 1, LEVEL_DRAM) < 0)
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
    s->l1_pf_candidates++;
    long long tpaddr;
    if (translate(s, tvaddr, &tpaddr) < 0)
        return -1;
    long long tblock = tpaddr >> 6;
    Py_ssize_t indices[SLP_FEATURES];
    long long confidence = 0;
    if (cache_find(&s->l1, tblock) >= 0) {
        s->l1_pf_dropped_resident++;
        return 0;
    }
    if (s->have_slp
        && !slp_consult(&s->slp, pc, tpaddr, s->last_prediction, indices, &confidence)) {
        s->l1_pf_filtered++;
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
            s->l1_pf_dropped_queue++;
            return 0;
        }
        served = LEVEL_DRAM;
        fetch_latency = s->l1.latency + s->l2.latency + s->llc.latency
                        + dram_access(s, cycle, &s->dram_l1d_prefetch);
        long long ready = cycle + fetch_latency;
        if (cache_fill(s, &s->llc, tblock, ready, 0, -1) < 0
            || cache_fill(s, &s->l2, tblock, ready, 0, -1) < 0)
            return -1;
    }
    s->l1_pf_issued++;
    s->pf_served[served]++;
    if (cache_fill(s, &s->l1, tblock, cycle + fetch_latency, 1, served) < 0)
        return -1;
    /* on_fill is the L1DPrefetcher base no-op for IPCP/Berti; SLP trains as
     * soon as the serve level is known. */
    if (s->have_slp)
        perceptron_train(&s->slp.p, indices, served == LEVEL_DRAM, confidence);
    PyObject *tblock_obj = PyLong_FromLongLong(tblock);
    if (tblock_obj == NULL)
        return -1;
    int rc = -1;
    PyObject *record = NULL;
    PyObject *previous = PyDict_GetItemWithError(s->pending_l1, tblock_obj);
    if (previous != NULL) {
        if (finalize_l1_prefetch(s, previous, 0) < 0)
            goto done;
    }
    else if (PyErr_Occurred())
        goto done;
    record = alloc_slots(PrefetchRecordType);
    PyObject *cycle_obj = record ? PyLong_FromLongLong(cycle) : NULL;
    PyObject *metadata = cycle_obj ? PyDict_New() : NULL;
    if (metadata == NULL) {
        Py_XDECREF(cycle_obj);
        goto done;
    }
    slot_set(record, PR_block_addr, tblock_obj);
    slot_set(record, PR_served_by, Levels[served]);
    SLOT(record, PR_issue_cycle) = cycle_obj;
    slot_set(record, PR_useful, Py_None);
    SLOT(record, PR_filter_metadata) = metadata;
    if (PyDict_SetItem(s->pending_l1, tblock_obj, record) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(record);
    Py_DECREF(tblock_obj);
    return rc;
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
    s->prediction_location[location]++;
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
    if (is_write)
        s->demand_stores++;
    else
        s->demand_loads++;

    /* -- off-chip prediction -- */
    int action = 0, predicted_offchip = 0;
    long long confidence = 0;
    Py_ssize_t indices[NUM_FEATURES];
    if (s->predictor_kind != PK_NULL) {
        uint64_t values[NUM_FEATURES];
        history_step(&s->history, pc, vaddr, values);
        for (int f = 0; f < NUM_FEATURES; f++)
            indices[f] = table_slot(values[f], s->flp.bits[f], s->flp.entries[f]);
        confidence = perceptron_sum(&s->flp, indices);
        s->flp.predictions++;
        if (confidence >= 0)
            s->flp.positive++;
        if (s->predictor_kind == PK_HERMES) {
            predicted_offchip = (double)confidence >= s->activation_threshold;
            action = predicted_offchip ? 1 : 0;
        }
        else if ((double)confidence > s->tau_high) {
            action = 1;
            predicted_offchip = 1;
            s->flp_immediate++;
        }
        else if ((double)confidence >= s->tau_low) {
            predicted_offchip = 1;
            if (s->selective_delay) {
                action = 2;
                s->flp_delayed++;
            }
            else {
                action = 1;
                s->flp_immediate++;
            }
        }
        else {
            s->flp_negative++;
        }
        s->last_prediction = predicted_offchip;
    }
    if (predicted_offchip)
        s->offchip_predictions++;

    /* -- immediate speculative DRAM request -- */
    int speculative = 0;
    long long speculative_ready = 0;
    if (action == 1) {
        s->speculative_requests++;
        record_location(s, block, 0);
        speculative = 1;
        speculative_ready = s->predictor_latency
                            + dram_access(s, cycle + s->predictor_latency, &s->dram_speculative);
    }

    /* -- L1D lookup -- */
    long long latency = s->l1.latency;
    int prefetch_hit;
    int l1d_hit = cache_lookup(&s->l1, block, cycle, is_write, &latency, &prefetch_hit);
    if (prefetch_hit && resolve_l1_prefetch(s, block, 1) < 0)
        return -1;

    /* -- L1D prefetcher -- */
    if (s->prefetch_kind != PF_NONE && l1_prefetch(s, pc, vaddr, l1d_hit, cycle) < 0)
        return -1;

    /* -- selective delay (FLP) -- */
    if (action == 2) {
        if (l1d_hit) {
            s->delayed_saved++;
        }
        else {
            s->speculative_requests++;
            s->delayed_speculative++;
            record_location(s, block, 1);
            long long wait = s->l1.latency + s->predictor_latency;
            speculative = 1;
            speculative_ready = wait + dram_access(s, cycle + wait, &s->dram_speculative);
        }
    }

    int went_offchip = 0;
    long long effective_latency = latency;
    if (l1d_hit) {
        s->served[LEVEL_L1D]++;
    }
    else {
        /* -- below-L1D walk -- */
        latency += s->l2.latency;
        int l2_prefetch_hit;
        int l2_hit = cache_lookup(&s->l2, block, cycle, is_write, &latency, &l2_prefetch_hit);
        if (l2_prefetch_hit && resolve_l2_prefetch(s, block) < 0)
            return -1;

        /* SPP observes L2 demand accesses. */
        if (s->have_spp && spp_issue(s, pc, block, cycle) < 0)
            return -1;

        if (l2_hit) {
            if (cache_fill(s, &s->l1, block, cycle + latency, 0, -1) < 0)
                return -1;
            s->served[LEVEL_L2C]++;
        }
        else {
            latency += s->llc.latency;
            int llc_prefetch_hit;
            if (cache_lookup(&s->llc, block, cycle, is_write, &latency, &llc_prefetch_hit)) {
                if (cache_fill(s, &s->l1, block, cycle + latency, 0, -1) < 0
                    || cache_fill(s, &s->l2, block, cycle + latency, 0, -1) < 0)
                    return -1;
                s->served[LEVEL_LLC]++;
            }
            else {
                long long dram_latency;
                if (speculative) {
                    /* Merged with the in-flight speculative fetch at the
                     * memory controller: no second DRAM transaction. */
                    dram_latency = s->dram_access_latency;
                }
                else {
                    dram_latency = dram_access(s, cycle + latency, &s->dram_demand);
                }
                latency += dram_latency;
                long long ready = cycle + latency;
                if (cache_fill(s, &s->llc, block, ready, 0, -1) < 0
                    || cache_fill(s, &s->l2, block, ready, 0, -1) < 0
                    || cache_fill(s, &s->l1, block, ready, 0, -1) < 0)
                    return -1;
                s->served[LEVEL_DRAM]++;
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
/* Chunks, core timing and the mix driver                              */
/* ------------------------------------------------------------------ */

static void
start_chunk(Stepper *s)
{
    s->chunk_stop = s->pos + s->chunk_records;
    if (s->chunk_stop > s->total)
        s->chunk_stop = s->total;
    s->in_chunk = 1;
}

static int
flush_dram(Stepper *s)
{
    PyObject *stats = s->dram_stats;
    if (add_attr(stats, S_total_transactions, s->dram_transactions) < 0
        || add_attr(stats, S_demand_transactions, s->dram_demand) < 0
        || add_attr(stats, S_speculative_transactions, s->dram_speculative) < 0
        || add_attr(stats, S_l1d_prefetch_transactions, s->dram_l1d_prefetch) < 0
        || add_attr(stats, S_l2c_prefetch_transactions, s->dram_l2c_prefetch) < 0
        || add_attr(stats, S_total_queue_cycles, s->dram_queue_cycles) < 0)
        return -1;
    long long current;
    if (get_ll(stats, S_max_queue_cycles, &current) < 0)
        return -1;
    if (s->dram_max_queue > current && set_ll(stats, S_max_queue_cycles, s->dram_max_queue) < 0)
        return -1;
    s->dram_transactions = s->dram_demand = s->dram_speculative = 0;
    s->dram_l1d_prefetch = s->dram_l2c_prefetch = 0;
    s->dram_queue_cycles = s->dram_max_queue = 0;
    return 0;
}

static int
flush_hierarchy(Stepper *s)
{
    PyObject *h = s->hstats;
    if (add_attr(h, S_demand_loads, s->demand_loads) < 0
        || add_attr(h, S_demand_stores, s->demand_stores) < 0
        || add_attr(h, S_offchip_predictions, s->offchip_predictions) < 0
        || add_attr(h, S_speculative_requests, s->speculative_requests) < 0
        || add_attr(h, S_delayed_speculative_requests, s->delayed_speculative) < 0
        || add_attr(h, S_delayed_predictions_saved, s->delayed_saved) < 0
        || add_attr(h, S_l1d_prefetch_candidates, s->l1_pf_candidates) < 0
        || add_attr(h, S_l1d_prefetches_dropped_resident, s->l1_pf_dropped_resident) < 0
        || add_attr(h, S_l1d_prefetches_filtered, s->l1_pf_filtered) < 0
        || add_attr(h, S_l1d_prefetches_dropped_queue_full, s->l1_pf_dropped_queue) < 0
        || add_attr(h, S_l1d_prefetches_issued, s->l1_pf_issued) < 0
        || add_attr(h, S_l2c_prefetch_candidates, s->l2_pf_candidates) < 0
        || add_attr(h, S_l2c_prefetches_dropped_resident, s->l2_pf_dropped_resident) < 0
        || add_attr(h, S_l2c_prefetches_filtered, s->l2_pf_filtered) < 0
        || add_attr(h, S_l2c_prefetches_dropped_queue_full, s->l2_pf_dropped_queue) < 0
        || add_attr(h, S_l2c_prefetches_issued, s->l2_pf_issued) < 0
        || add_attr(h, S_useful_l1d_prefetches, s->useful_l1_prefetches) < 0
        || add_attr(h, S_useless_l1d_prefetches, s->useless_l1_prefetches) < 0
        || add_levels(h, S_served_by, s->served) < 0
        || add_levels(h, S_l1d_prefetch_served_by, s->pf_served) < 0
        || add_levels(h, S_offchip_prediction_location, s->prediction_location) < 0
        || add_levels(h, S_accurate_prefetch_source, s->accurate_source) < 0
        || add_levels(h, S_inaccurate_prefetch_source, s->inaccurate_source) < 0)
        return -1;
    s->demand_loads = s->demand_stores = s->offchip_predictions = 0;
    s->speculative_requests = s->delayed_speculative = s->delayed_saved = 0;
    s->l1_pf_candidates = s->l1_pf_dropped_resident = s->l1_pf_filtered = 0;
    s->l1_pf_dropped_queue = s->l1_pf_issued = 0;
    s->l2_pf_candidates = s->l2_pf_dropped_resident = s->l2_pf_filtered = 0;
    s->l2_pf_dropped_queue = s->l2_pf_issued = 0;
    s->useful_l1_prefetches = s->useless_l1_prefetches = 0;
    return 0;
}

static int
flush_predictor(Stepper *s)
{
    if (s->predictor_kind == PK_NULL)
        return 0;
    if (perceptron_flush(&s->flp) < 0
        || PyObject_SetAttr(s->predictor, S_last_prediction, py_bool(s->last_prediction)) < 0)
        return -1;
    if (s->predictor_kind == PK_FLP
        && (add_attr(s->predictor, S_immediate_decisions, s->flp_immediate) < 0
            || add_attr(s->predictor, S_delayed_decisions, s->flp_delayed) < 0
            || add_attr(s->predictor, S_negative_decisions, s->flp_negative) < 0))
        return -1;
    s->flp_immediate = s->flp_delayed = s->flp_negative = 0;
    return 0;
}

static int
flush_components(Stepper *s)
{
    if (s->prefetch_kind == PF_IPCP && ipcp_flush(&s->ipcp, s->prefetcher) < 0)
        return -1;
    if (s->have_spp && add_attr(s->l2_prefetcher, S_lookahead_prefetches,
                                s->spp.lookahead_prefetches) < 0)
        return -1;
    s->spp.lookahead_prefetches = 0;
    if (s->have_ppf && ppf_flush(&s->ppf, s->l2_filter) < 0)
        return -1;
    return s->have_slp ? slp_flush(&s->slp, s->l1_filter) : 0;
}

/* Add the chunk's counters to their stats objects, then sample. */
static int
end_chunk(Stepper *s)
{
    s->in_chunk = 0;
    if (flush_hierarchy(s) < 0 || cache_flush(&s->l1) < 0 || cache_flush(&s->l2) < 0
        || cache_flush(&s->llc) < 0 || flush_dram(s) < 0 || flush_predictor(s) < 0
        || flush_components(s) < 0)
        return -1;
    if (s->sample_hook == NULL)
        return 0;
    long long loads, stores;
    if (get_ll(s->hstats, S_demand_loads, &loads) < 0
        || get_ll(s->hstats, S_demand_stores, &stores) < 0)
        return -1;
    long long accesses = loads + stores;
    if (accesses < s->next_sample)
        return 0;
    PyObject *accesses_obj = PyLong_FromLongLong(accesses);
    PyObject *done_obj = PyLong_FromLongLong(s->instructions);
    PyObject *base = PyObject_GetAttr(s->runner, S_instructions);
    PyObject *instructions = (base && done_obj) ? PyNumber_Add(base, done_obj) : NULL;
    PyObject *cycles = PyFloat_FromDouble(s->last_retire);
    int rc = -1;
    if (accesses_obj && instructions && cycles
        && discard(call3(s->sample_hook, accesses_obj, instructions, cycles)) == 0)
        rc = 0;
    Py_XDECREF(accesses_obj);
    Py_XDECREF(done_obj);
    Py_XDECREF(base);
    Py_XDECREF(instructions);
    Py_XDECREF(cycles);
    s->next_sample = (accesses / s->sample_interval + 1) * s->sample_interval;
    return rc;
}

/* Hand the flat component state back to its Python containers. */
static int
write_back_components(Stepper *s)
{
    if (s->predictor_kind != PK_NULL && history_write_back(&s->history) < 0)
        return -1;
    if (s->prefetch_kind == PF_IPCP && ipcp_write_back(&s->ipcp, s->prefetcher) < 0)
        return -1;
    if (s->prefetch_kind == PF_BERTI && berti_write_back(&s->berti, s->prefetcher) < 0)
        return -1;
    if (s->have_spp && spp_write_back(&s->spp, s->l2_prefetcher) < 0)
        return -1;
    return s->have_slp ? history_write_back(&s->slp.history) : 0;
}

/* Write the core runner's and the components' state back (end of the
 * trace). */
static int
finish(Stepper *s)
{
    PyObject *times = PyList_New(s->retire_len);
    if (times == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < s->retire_len; i++) {
        PyObject *value = PyFloat_FromDouble(s->retire[(s->retire_head + i) % s->retire_cap]);
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
        && PyObject_SetAttr(s->runner, S_total_load_latency, total) == 0
        && write_back_components(s) == 0)
        rc = 0;
    Py_DECREF(times);
    Py_XDECREF(cleared);
    Py_XDECREF(extended);
    Py_XDECREF(dispatch);
    Py_XDECREF(retire);
    Py_XDECREF(latency);
    Py_XDECREF(old);
    Py_XDECREF(total);
    return rc;
}

static inline void
retire_record(Stepper *s, double dispatch, long long latency)
{
    double completion = dispatch + (double)latency;
    double retire = s->last_retire + s->dispatch_interval;
    if (completion > retire)
        retire = completion;
    s->retire[(s->retire_head + s->retire_len) % s->retire_cap] = retire;
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
            if (s->pos == s->chunk_stop) {
                if (s->in_chunk && end_chunk(s) < 0)
                    goto error;
                if (s->pos == s->total) {
                    s->finished = 1;
                    int rc = finish(s);
                    release_components(s);
                    return rc;
                }
                start_chunk(s);
            }
            dispatch = s->dispatch_cycle;
            if (s->retire_len >= s->rob_size) {
                double constraint = s->retire[s->retire_head];
                s->retire_head = (s->retire_head + 1) % s->retire_cap;
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
 * resumes the live core with the smallest (paused dispatch cycle, core id);
 * every core starts paused at -inf.  A Stepper is advanced by a direct
 * call; any other iterator (a core on the scalar reference) by
 * PyIter_Next, and it yields each load/store's dispatch cycle before
 * performing it. */
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
        PyObject *item = PyTuple_GET_ITEM(steppers, i);
        if (!Py_IS_TYPE(item, &StepperType) && !PyIter_Check(item)) {
            PyErr_SetString(PyExc_TypeError, "run_mix needs Steppers or iterators");
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
        PyObject *item = PyTuple_GET_ITEM(steppers, core);
        if (Py_IS_TYPE(item, &StepperType)) {
            rc = advance((Stepper *)item, &cycles[core]);
        }
        else {
            PyObject *cycle = PyIter_Next(item);
            rc = cycle != NULL ? 1 : PyErr_Occurred() ? -1 : 0;
            if (cycle != NULL) {
                cycles[core] = PyFloat_AsDouble(cycle);
                Py_DECREF(cycle);
                if (cycles[core] == -1.0 && PyErr_Occurred())
                    rc = -1;
            }
        }
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
    PyObject *perceptron = PyObject_GetAttr(predictor, S_perceptron);
    if (perceptron == NULL)
        return -1;
    int bound = perceptron_init(&s->flp, perceptron, NUM_FEATURES);
    Py_DECREF(perceptron);
    if (bound < 0 || get_truth(predictor, S_last_prediction, &s->last_prediction) < 0)
        return -1;
    PyObject *history = PyObject_GetAttr(predictor, S_history);
    if (history == NULL)
        return -1;
    bound = history_load(&s->history, history);
    Py_DECREF(history);
    if (bound < 0)
        return -1;
    if (s->predictor_kind == PK_HERMES)
        return get_double(predictor, S_activation_threshold, &s->activation_threshold);
    if (get_truth(predictor, S_selective_delay, &s->selective_delay) < 0
        || get_double(predictor, S_tau_high, &s->tau_high) < 0
        || get_double(predictor, S_tau_low, &s->tau_low) < 0)
        return -1;
    return 0;
}

static int
init_core(Stepper *s, PyObject *runner)
{
    s->runner = Py_NewRef(runner);
    long long rob_size;
    if (get_ll(runner, S_rob_size, &rob_size) < 0
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
        || (s->dram_stats = PyObject_GetAttr(s->dram, S_stats)) == NULL
        || (s->busy_until = state_array(&s->busy_view, s->dram, S__busy_until, 'd', 1,
                                        "DRAM")) == NULL
        || get_double(s->dram, S__cycles_per_transaction, &s->cycles_per_transaction) < 0
        || (config = PyObject_GetAttr(s->dram, S_config)) == NULL
        || get_ll(config, S_access_latency, &s->dram_access_latency) < 0
        || (page_table = PyObject_GetAttr(h, S_page_table)) == NULL
        || page_table_init(&s->pages, page_table) < 0
        || (s->hstats = PyObject_GetAttr(h, S_stats)) == NULL
        || (s->resolve_l2 = PyObject_GetAttr(h, S__resolve_l2c_prefetch_use)) == NULL
        || (s->pending_l1 = PyObject_GetAttr(h, S__pending_l1d_prefetches)) == NULL
        || (s->pending_l2c = PyObject_GetAttr(h, S__pending_l2c_prefetches)) == NULL
        || get_ll(h, S__predictor_latency, &s->predictor_latency) < 0
        || get_double(h, S__prefetch_drop_queue_cycles, &s->drop_cycles) < 0)
        goto done;
    if (!PyDict_CheckExact(s->pending_l1) || !PyDict_CheckExact(s->pending_l2c)) {
        PyErr_SetString(PyExc_TypeError, "pending prefetches must be dicts");
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

/* Bind the prefetch path: flat copies of the components' state. */
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
    if ((s->prefetch_kind == PF_IPCP && ipcp_load(&s->ipcp, s->prefetcher) < 0)
        || (s->prefetch_kind == PF_BERTI && berti_load(&s->berti, s->prefetcher) < 0)
        || (s->have_spp && spp_load(&s->spp, s->l2_prefetcher) < 0)
        || (s->have_ppf && ppf_load(&s->ppf, s->l2_filter) < 0)
        || (s->have_slp && slp_load(&s->slp, s->l1_filter) < 0))
        return -1;
    return 0;
}

static void
release_components(Stepper *s)
{
    ipcp_release(&s->ipcp);
    berti_release(&s->berti);
    spp_release(&s->spp);
    view_release(&s->ppf.view);
    slp_release(&s->slp);
    keys_free(&s->history.pages);
    frames_free(&s->pages);
}

static PyObject *
stepper_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {
        "runner", "hierarchy", "pcs", "vaddrs", "kinds", "kind_non_mem",
        "chunk_records", "predictor_kind", "prefetch_kind", "sample_hook",
        "sample_interval", NULL};
    PyObject *runner, *hierarchy, *pcs, *vaddrs, *kinds, *hook;
    int kind_non_mem, predictor_kind, prefetch_kind;
    Py_ssize_t chunk_records;
    long long sample_interval;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOiniiOL", keywords, &runner,
                                     &hierarchy, &pcs, &vaddrs, &kinds, &kind_non_mem,
                                     &chunk_records, &predictor_kind, &prefetch_kind,
                                     &hook, &sample_interval))
        return NULL;
    if (chunk_records <= 0) {
        PyErr_SetString(PyExc_ValueError, "chunk_records must be positive");
        return NULL;
    }
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
    s->chunk_records = chunk_records;
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
    perceptron_release(&s->flp);
    release_components(s);
}

static int
stepper_traverse(Stepper *s, visitproc visit, void *arg)
{
#define VISIT(n) Py_VISIT(s->n);
    STEPPER_OBJECTS(VISIT)
#undef VISIT
#define VISIT_CACHE(n) Py_VISIT(s->l1.n); Py_VISIT(s->l2.n); Py_VISIT(s->llc.n);
    CACHE_OBJECTS(VISIT_CACHE)
#undef VISIT_CACHE
    Py_VISIT(s->flp.stats);
    Py_VISIT(s->slp.p.stats);
    Py_VISIT(s->slp.history.obj);
    Py_VISIT(s->history.obj);
    Py_VISIT(s->pages.obj);
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
#define CLEAR_CACHE(n) Py_CLEAR(s->l1.n); Py_CLEAR(s->l2.n); Py_CLEAR(s->llc.n);
    CACHE_OBJECTS(CLEAR_CACHE)
#undef CLEAR_CACHE
    Py_CLEAR(s->flp.stats);
    Py_CLEAR(s->slp.p.stats);
    Py_CLEAR(s->slp.history.obj);
    Py_CLEAR(s->history.obj);
    Py_CLEAR(s->pages.obj);
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
    if (PyModule_AddObjectRef(module, "Stepper", (PyObject *)&StepperType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
