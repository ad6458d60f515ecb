/*
 * Compiled fused access kernel of the batch simulator core.
 *
 * One Stepper runs one core's trace through its MemoryHierarchy: core
 * dispatch/ROB timing, page translation, the L1D->L2C->LLC->DRAM walk with
 * its LRU updates and fills, speculative DRAM requests, the FLP/Hermes
 * weight sums and training, and the L1D/L2C prefetch issue paths.  It works
 * on the very Python objects the scalar reference uses (cache _blocks,
 * _stamps, _way_blocks, _set_fill and _clock, CacheBlock slots, the page
 * table, DRAM _busy_until, the perceptron int32 weights and every stats
 * object), in the same order and with the same arithmetic, so there is no
 * second copy of the simulator state.  The order-dependent kernels of the
 * prefetchers and filters (IPCP/Berti step_batch, SPP step, PPF/SLP
 * consult_step, SLP train) and the hierarchy callbacks stay Python calls.
 *
 * Cache clocks and the DRAM channel's _busy_until are written through to
 * their objects on every change, so they are current at every yield and
 * every Python call.  They are re-read after a yield (another core of a mix
 * may have moved the shared LLC and DRAM) and after the generic object-call
 * paths (unrecognised prefetchers, the sample hook), which may fill caches
 * themselves.  Pure counters accumulate per chunk and are added to their
 * stats objects at the end of each chunk.
 *
 * The Stepper is an iterator: it runs compute records on its own and yields
 * each load/store's dispatch cycle before performing it, so a multi-core
 * driver can merge several cores on one heap.  Stepper.run() drains it
 * without yielding.  Built on first use by repro.sim.native.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>

/* ------------------------------------------------------------------ */
/* Interned names and the model's Python types                         */
/* ------------------------------------------------------------------ */

static PyObject *CacheBlockType, *EvictionInfoType, *PrefetchRecordType;
static PyObject *Levels[4]; /* MemLevel.L1D .. MemLevel.DRAM */

/* CacheBlock slot offsets. */
static Py_ssize_t CB_block_addr, CB_slot, CB_dirty, CB_prefetched,
    CB_prefetch_useful, CB_prefetch_source_level, CB_ready_cycle;
/* PrefetchRecord slot offsets. */
static Py_ssize_t PR_block_addr, PR_served_by, PR_issue_cycle, PR_useful,
    PR_filter_metadata;

#define NAMES(X)                                                             \
    X(_clock) X(_busy_until) X(_blocks) X(_stamps) X(_way_blocks)            \
    X(_set_fill) X(stats) X(_eviction_listener) X(num_sets) X(associativity) \
    X(latency) X(l1d) X(l2c) X(llc) X(dram) X(page_table) X(_mapping)        \
    X(_allocate_frame) X(_record_offchip_prediction_location)                \
    X(_resolve_l1d_prefetch_use) X(_resolve_l2c_prefetch_use)                \
    X(_issue_l1d_prefetch) X(_finalize_l1d_prefetch)                         \
    X(_pending_l1d_prefetches) X(_pending_l2c_prefetches)                    \
    X(_predictor_latency) X(_prefetch_drop_queue_cycles)                     \
    X(_cycles_per_transaction) X(config) X(access_latency)                   \
    X(offchip_predictor)                                                     \
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
    X(l1d_prefetch_candidates) X(l1d_prefetches_dropped_resident)            \
    X(l1d_prefetches_filtered) X(l1d_prefetches_dropped_queue_full)          \
    X(l1d_prefetches_issued) X(l2c_prefetch_candidates)                      \
    X(l2c_prefetches_dropped_resident) X(l2c_prefetches_filtered)            \
    X(l2c_prefetches_dropped_queue_full) X(l2c_prefetches_issued)            \
    X(served_by) X(l1d_prefetch_served_by) X(demand_accesses)                \
    X(demand_hits) X(demand_misses) X(prefetch_hits) X(prefetch_fills)       \
    X(demand_fills) X(evictions) X(writebacks) X(useful_prefetch_evictions)  \
    X(useless_prefetch_evictions) X(total_transactions)                      \
    X(demand_transactions) X(speculative_transactions)                       \
    X(l1d_prefetch_transactions) X(l2c_prefetch_transactions)                \
    X(total_queue_cycles) X(max_queue_cycles)

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
    if (CacheBlockType != NULL)
        return 0;
    PyObject *block = import_attr("repro.memory.cache", "CacheBlock");
    PyObject *info = import_attr("repro.memory.cache", "EvictionInfo");
    PyObject *record = import_attr("repro.memory.hierarchy", "PrefetchRecord");
    PyObject *level = import_attr("repro.common.types", "MemLevel");
    if (block == NULL || info == NULL || record == NULL || level == NULL)
        goto error;
    if (!PyType_Check(block) || !PyType_Check(record)) {
        PyErr_SetString(PyExc_TypeError, "CacheBlock/PrefetchRecord must be classes");
        goto error;
    }
    if ((CB_block_addr = slot_offset(block, "block_addr")) < 0
        || (CB_slot = slot_offset(block, "slot")) < 0
        || (CB_dirty = slot_offset(block, "dirty")) < 0
        || (CB_prefetched = slot_offset(block, "prefetched")) < 0
        || (CB_prefetch_useful = slot_offset(block, "prefetch_useful")) < 0
        || (CB_prefetch_source_level = slot_offset(block, "prefetch_source_level")) < 0
        || (CB_ready_cycle = slot_offset(block, "ready_cycle")) < 0
        || (PR_block_addr = slot_offset(record, "block_addr")) < 0
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
    CacheBlockType = block;
    EvictionInfoType = info;
    PrefetchRecordType = record;
    return 0;
error:
    for (int i = 0; i < 4; i++)
        Py_CLEAR(Levels[i]);
    Py_XDECREF(block);
    Py_XDECREF(info);
    Py_XDECREF(record);
    Py_XDECREF(level);
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

static int
get_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    *out = PyLong_AsLongLong(value);
    Py_DECREF(value);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
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

static PyObject *
call1(PyObject *f, PyObject *a)
{
    PyObject *args[2] = {NULL, a};
    return PyObject_Vectorcall(f, args + 1, 1 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
}

static PyObject *
call2(PyObject *f, PyObject *a, PyObject *b)
{
    PyObject *args[3] = {NULL, a, b};
    return PyObject_Vectorcall(f, args + 1, 2 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
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

/* ------------------------------------------------------------------ */
/* One cache level                                                     */
/* ------------------------------------------------------------------ */

#define CACHE_OBJECTS(X) \
    X(obj) X(blocks) X(stamps) X(way_blocks) X(set_fill) X(stats) X(listener)

typedef struct {
#define DECLARE_FIELD(n) PyObject *n;
    CACHE_OBJECTS(DECLARE_FIELD)
#undef DECLARE_FIELD
    long long num_sets, ways, latency;
    long long clock; /* mirror of obj._clock, written through */
    /* Chunk-local counters, added to ``stats`` at the end of each chunk. */
    long long accesses, hits, misses, pf_hits;
    long long prefetch_fills, demand_fills, evictions, writebacks;
    long long useful_evictions, useless_evictions;
} CacheState;

static int
cache_init(CacheState *c, PyObject *cache)
{
    Py_INCREF(cache);
    c->obj = cache;
    if ((c->blocks = PyObject_GetAttr(cache, S__blocks)) == NULL
        || (c->stamps = PyObject_GetAttr(cache, S__stamps)) == NULL
        || (c->way_blocks = PyObject_GetAttr(cache, S__way_blocks)) == NULL
        || (c->set_fill = PyObject_GetAttr(cache, S__set_fill)) == NULL
        || (c->stats = PyObject_GetAttr(cache, S_stats)) == NULL
        || (c->listener = PyObject_GetAttr(cache, S__eviction_listener)) == NULL)
        return -1;
    if (!PyDict_CheckExact(c->blocks) || !PyList_CheckExact(c->stamps)
        || !PyList_CheckExact(c->way_blocks) || !PyList_CheckExact(c->set_fill)) {
        PyErr_SetString(PyExc_TypeError, "unexpected cache state layout");
        return -1;
    }
    if (c->listener == Py_None)
        Py_CLEAR(c->listener);
    if (get_ll(cache, S_num_sets, &c->num_sets) < 0
        || get_ll(cache, S_associativity, &c->ways) < 0
        || get_ll(cache, S_latency, &c->latency) < 0
        || get_ll(cache, S__clock, &c->clock) < 0)
        return -1;
    if (PyList_GET_SIZE(c->stamps) != c->num_sets * c->ways
        || PyList_GET_SIZE(c->way_blocks) != c->num_sets * c->ways
        || PyList_GET_SIZE(c->set_fill) != c->num_sets) {
        PyErr_SetString(PyExc_ValueError, "cache state does not match its geometry");
        return -1;
    }
    return 0;
}

static int
cache_reload(CacheState *c)
{
    return get_ll(c->obj, S__clock, &c->clock);
}

/* Take a fresh stamp for ``slot`` from the cache's clock. */
static int
cache_tick(CacheState *c, Py_ssize_t slot)
{
    PyObject *stamp = PyLong_FromLongLong(c->clock + 1);
    if (stamp == NULL)
        return -1;
    if (PyObject_SetAttr(c->obj, S__clock, stamp) < 0) {
        Py_DECREF(stamp);
        return -1;
    }
    c->clock += 1;
    PyObject *old = PyList_GET_ITEM(c->stamps, slot);
    PyList_SET_ITEM(c->stamps, slot, stamp);
    Py_DECREF(old);
    return 0;
}

static int
block_slot(PyObject *block, Py_ssize_t *slot, Py_ssize_t limit)
{
    PyObject *value = slot_get(block, CB_slot);
    if (value == NULL)
        return -1;
    *slot = PyLong_AsSsize_t(value);
    if (*slot == -1 && PyErr_Occurred())
        return -1;
    if (*slot < 0 || *slot >= limit) {
        PyErr_SetString(PyExc_IndexError, "cache block slot out of range");
        return -1;
    }
    return 0;
}

/* Demand lookup (Cache.lookup plus the ready-cycle wait of the walk).
 * Returns 1 on a hit, 0 on a miss, -1 on error; *latency grows to the
 * remaining fill time of an in-flight block, *prefetch_hit reports a first
 * demand use of a prefetched block. */
static int
cache_lookup(CacheState *c, PyObject *key, long long cycle, int is_write,
             long long *latency, int *prefetch_hit)
{
    c->accesses++;
    PyObject *block = PyDict_GetItemWithError(c->blocks, key);
    if (block == NULL) {
        if (PyErr_Occurred())
            return -1;
        c->misses++;
        *prefetch_hit = 0;
        return 0;
    }
    Py_INCREF(block);
    int rc = -1;
    PyObject *prefetched = slot_get(block, CB_prefetched);
    PyObject *useful = slot_get(block, CB_prefetch_useful);
    PyObject *ready_obj = slot_get(block, CB_ready_cycle);
    if (prefetched == NULL || useful == NULL || ready_obj == NULL)
        goto done;
    int was_prefetched = truth(prefetched), was_useful = truth(useful);
    if (was_prefetched < 0 || was_useful < 0)
        goto done;
    long long ready = PyLong_AsLongLong(ready_obj);
    if (ready == -1 && PyErr_Occurred())
        goto done;
    if (ready > cycle && ready - cycle > *latency)
        *latency = ready - cycle;
    c->hits++;
    *prefetch_hit = was_prefetched && !was_useful;
    if (*prefetch_hit) {
        slot_set(block, CB_prefetch_useful, Py_True);
        c->pf_hits++;
    }
    if (is_write)
        slot_set(block, CB_dirty, Py_True);
    Py_ssize_t slot;
    if (block_slot(block, &slot, PyList_GET_SIZE(c->stamps)) < 0)
        goto done;
    if (cache_tick(c, slot) < 0)
        goto done;
    rc = 1;
done:
    Py_DECREF(block);
    return rc;
}

/* Cache.fill for a fill that never sets ``dirty`` (every fill the kernel
 * drives).  ``key`` is the block address as a Python int; ``source`` the
 * prefetch source level (-1 for None). */
static int
cache_fill(CacheState *c, PyObject *key, long long block_addr, long long ready,
           int prefetched, int source)
{
    PyObject *existing = PyDict_GetItemWithError(c->blocks, key);
    if (existing != NULL) {
        /* Fill races with an earlier fill of the same block: keep the
         * stronger attribution (a demand fill overrides prefetched). */
        if (!prefetched)
            slot_set(existing, CB_prefetched, Py_False);
        PyObject *old = slot_get(existing, CB_ready_cycle);
        if (old == NULL)
            return -1;
        long long previous = PyLong_AsLongLong(old);
        if (previous == -1 && PyErr_Occurred())
            return -1;
        if (ready < previous) {
            PyObject *boxed = PyLong_FromLongLong(ready);
            if (boxed == NULL)
                return -1;
            slot_set(existing, CB_ready_cycle, boxed);
            Py_DECREF(boxed);
        }
        return 0;
    }
    if (PyErr_Occurred())
        return -1;

    Py_ssize_t set_idx = (Py_ssize_t)(block_addr % c->num_sets);
    Py_ssize_t slot;
    long long used = PyLong_AsLongLong(PyList_GET_ITEM(c->set_fill, set_idx));
    if (used == -1 && PyErr_Occurred())
        return -1;
    if (used < c->ways) {
        slot = set_idx * c->ways + used;
        PyObject *count = PyLong_FromLongLong(used + 1);
        if (count == NULL)
            return -1;
        PyObject *old = PyList_GET_ITEM(c->set_fill, set_idx);
        PyList_SET_ITEM(c->set_fill, set_idx, count);
        Py_DECREF(old);
    }
    else {
        /* The victim is the set's first least-recent stamp. */
        Py_ssize_t base = set_idx * c->ways;
        slot = base;
        long long best = 0;
        for (Py_ssize_t i = base; i < base + c->ways; i++) {
            long long stamp = PyLong_AsLongLong(PyList_GET_ITEM(c->stamps, i));
            if (stamp == -1 && PyErr_Occurred())
                return -1;
            if (i == base || stamp < best) {
                best = stamp;
                slot = i;
            }
        }
        PyObject *victim = PyList_GET_ITEM(c->way_blocks, slot);
        Py_INCREF(victim);
        PyObject *vaddr = slot_get(victim, CB_block_addr);
        PyObject *vdirty = slot_get(victim, CB_dirty);
        PyObject *vprefetched = slot_get(victim, CB_prefetched);
        PyObject *vuseful = slot_get(victim, CB_prefetch_useful);
        int dirty, was_prefetched, was_useful;
        if (vaddr == NULL || vdirty == NULL || vprefetched == NULL || vuseful == NULL
            || (dirty = truth(vdirty)) < 0 || (was_prefetched = truth(vprefetched)) < 0
            || (was_useful = truth(vuseful)) < 0
            || PyDict_DelItem(c->blocks, vaddr) < 0) {
            Py_DECREF(victim);
            return -1;
        }
        c->evictions++;
        if (dirty)
            c->writebacks++;
        if (was_prefetched) {
            if (was_useful)
                c->useful_evictions++;
            else
                c->useless_evictions++;
        }
        if (c->listener != NULL) {
            PyObject *info = call4(EvictionInfoType, vaddr, vprefetched, vuseful, vdirty);
            if (info == NULL || discard(call1(c->listener, info)) < 0) {
                Py_XDECREF(info);
                Py_DECREF(victim);
                return -1;
            }
            Py_DECREF(info);
        }
        Py_DECREF(victim);
    }

    PyObject *block = alloc_slots(CacheBlockType);
    PyObject *slot_obj = PyLong_FromSsize_t(slot);
    PyObject *ready_obj = PyLong_FromLongLong(ready);
    PyObject *source_obj = source < 0 ? Py_NewRef(Py_None) : PyLong_FromLong(source);
    if (block == NULL || slot_obj == NULL || ready_obj == NULL || source_obj == NULL) {
        Py_XDECREF(block);
        Py_XDECREF(slot_obj);
        Py_XDECREF(ready_obj);
        Py_XDECREF(source_obj);
        return -1;
    }
    slot_set(block, CB_block_addr, key);
    SLOT(block, CB_slot) = slot_obj;
    slot_set(block, CB_dirty, Py_False);
    slot_set(block, CB_prefetched, py_bool(prefetched));
    slot_set(block, CB_prefetch_useful, Py_False);
    SLOT(block, CB_prefetch_source_level) = source_obj;
    SLOT(block, CB_ready_cycle) = ready_obj;
    if (PyDict_SetItem(c->blocks, key, block) < 0) {
        Py_DECREF(block);
        return -1;
    }
    PyObject *old = PyList_GET_ITEM(c->way_blocks, slot);
    PyList_SET_ITEM(c->way_blocks, slot, block); /* steals */
    Py_DECREF(old);
    if (cache_tick(c, slot) < 0)
        return -1;
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
/* The stepper                                                         */
/* ------------------------------------------------------------------ */

enum { PK_NULL = 0, PK_HERMES = 1, PK_FLP = 2 };
enum { LEVEL_L1D = 0, LEVEL_L2C = 1, LEVEL_LLC = 2, LEVEL_DRAM = 3 };
#define NUM_FEATURES 5

#define STEPPER_OBJECTS(X)                                                    \
    X(runner) X(hierarchy) X(hstats) X(begin_chunk) X(sample_hook)            \
    X(page_map) X(allocate_frame) X(record_location) X(resolve_l1)            \
    X(resolve_l2) X(run_l2_prefetcher) X(issue_l1d_prefetch)                  \
    X(on_demand_access) X(pf_step) X(spp_step) X(ppf_consult) X(slp_consult)  \
    X(slp_train) X(pending_l1) X(pending_l2c) X(finalize_l1) X(predictor)     \
    X(pstats) X(dram) X(dram_stats) X(retire_deque) X(index_columns)

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

    /* Off-chip predictor: weight tables and this chunk's index columns. */
    int predictor_kind;
    Py_buffer table_bufs[NUM_FEATURES];
    int have_tables;
    int32_t *tables[NUM_FEATURES];
    Py_ssize_t table_len[NUM_FEATURES];
    long long lo[NUM_FEATURES], hi[NUM_FEATURES];
    double training_threshold, activation_threshold, tau_high, tau_low;
    int selective_delay, last_prediction;
    Py_buffer index_buf;
    int have_index;
    const int64_t *index;
    Py_ssize_t index_rows, demand_cursor;

    /* Hierarchy constants and the DRAM channel. */
    long long predictor_latency, dram_access_latency;
    double cycles_per_transaction, drop_cycles;
    double busy_until; /* mirror of dram._busy_until, written through */

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
    long long predictions, positive, training_events, correct, weight_updates;
    long long flp_immediate, flp_delayed, flp_negative;
    long long demand_loads, demand_stores, offchip_predictions;
    long long speculative_requests, delayed_speculative, delayed_saved;
    long long l1_pf_candidates, l1_pf_dropped_resident, l1_pf_filtered;
    long long l1_pf_dropped_queue, l1_pf_issued;
    long long l2_pf_candidates, l2_pf_dropped_resident, l2_pf_filtered;
    long long l2_pf_dropped_queue, l2_pf_issued;
    long long served[4], pf_served[4];
    long long dram_transactions, dram_demand, dram_speculative;
    long long dram_l1d_prefetch, dram_l2c_prefetch;
    long long dram_queue_cycles, dram_max_queue;
} Stepper;

static int
set_busy(Stepper *s, double value)
{
    PyObject *boxed = PyFloat_FromDouble(value);
    if (boxed == NULL)
        return -1;
    int rc = PyObject_SetAttr(s->dram, S__busy_until, boxed);
    Py_DECREF(boxed);
    if (rc == 0)
        s->busy_until = value;
    return rc;
}

/* Re-read the state a Python call or another core may have moved. */
static int
reload_shared(Stepper *s)
{
    return cache_reload(&s->llc) < 0 ? -1 : get_double(s->dram, S__busy_until, &s->busy_until);
}

static int
reload_all(Stepper *s)
{
    if (cache_reload(&s->l1) < 0 || cache_reload(&s->l2) < 0)
        return -1;
    return reload_shared(s);
}

/* One queued DRAM transaction issued at ``issue_at`` (DRAMModel.access's
 * timing); returns its queue delay and counts the queue cycles. */
static int
dram_transaction(Stepper *s, long long issue_at, double *queue_delay)
{
    double delay = s->busy_until - (double)issue_at;
    if (delay < 0.0)
        delay = 0.0;
    if (set_busy(s, (double)issue_at + delay + s->cycles_per_transaction) < 0)
        return -1;
    s->dram_transactions++;
    long long queue_cycles = (long long)delay;
    s->dram_queue_cycles += queue_cycles;
    if (queue_cycles > s->dram_max_queue)
        s->dram_max_queue = queue_cycles;
    *queue_delay = delay;
    return 0;
}

/* DRAMModel.access for a prefetch: returns the latency until the data. */
static int
dram_prefetch(Stepper *s, long long cycle, long long *counter, long long *latency)
{
    double delay;
    if (dram_transaction(s, cycle, &delay) < 0)
        return -1;
    (*counter)++;
    *latency = (long long)(delay + (double)s->dram_access_latency);
    return 0;
}

static inline int
dram_backed_up(Stepper *s, long long cycle)
{
    return s->busy_until - (double)cycle > s->drop_cycles;
}

/* PageTable.translate: returns the physical address. */
static int
translate(Stepper *s, long long vaddr, long long *paddr)
{
    PyObject *vpage = PyLong_FromLongLong(vaddr >> 12);
    if (vpage == NULL)
        return -1;
    PyObject *frame = PyDict_GetItemWithError(s->page_map, vpage);
    if (frame != NULL)
        Py_INCREF(frame);
    else if (!PyErr_Occurred())
        frame = call1(s->allocate_frame, vpage);
    Py_DECREF(vpage);
    if (frame == NULL)
        return -1;
    long long value = PyLong_AsLongLong(frame);
    Py_DECREF(frame);
    if (value == -1 && PyErr_Occurred())
        return -1;
    *paddr = (value << 12) | (vaddr & 4095);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Prefetch issue paths                                                */
/* ------------------------------------------------------------------ */

/* SPP observes an L2 access to ``block`` and its lookahead predictions are
 * issued (_run_l2_prefetcher + _issue_l2c_prefetch over SPP's raw
 * prediction tuples, filtered by PPF when present). */
static int
spp_issue(Stepper *s, PyObject *pc_obj, PyObject *block_obj, long long cycle)
{
    PyObject *predictions = call2(s->spp_step, block_obj, pc_obj);
    if (predictions == NULL)
        return -1;
    if (predictions == Py_None) {
        Py_DECREF(predictions);
        return 0;
    }
    PyObject *seq = PySequence_Fast(predictions, "SPP step must return a sequence");
    Py_DECREF(predictions);
    if (seq == NULL)
        return -1;
    int rc = -1;
    PyObject *consult = NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_CLEAR(consult);
        PyObject *item = PySequence_Fast_GET_ITEM(seq, i);
        if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 6) {
            PyErr_SetString(PyExc_TypeError, "SPP predictions must be 6-tuples");
            goto done;
        }
        PyObject *pblock_obj = PyTuple_GET_ITEM(item, 0);
        s->l2_pf_candidates++;
        int resident = PyDict_Contains(s->l2.blocks, pblock_obj);
        if (resident < 0)
            goto done;
        if (resident) {
            s->l2_pf_dropped_resident++;
            continue;
        }
        if (s->ppf_consult != NULL) {
            PyObject *args[7] = {NULL, pc_obj, pblock_obj, PyTuple_GET_ITEM(item, 2),
                                 PyTuple_GET_ITEM(item, 3), PyTuple_GET_ITEM(item, 4),
                                 PyTuple_GET_ITEM(item, 5)};
            consult = PyObject_Vectorcall(s->ppf_consult, args + 1,
                                          6 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
            if (consult == NULL)
                goto done;
            if (!PyTuple_Check(consult) || PyTuple_GET_SIZE(consult) != 3) {
                PyErr_SetString(PyExc_TypeError, "PPF consult_step must return a 3-tuple");
                goto done;
            }
            int issue = truth(PyTuple_GET_ITEM(consult, 0));
            if (issue < 0)
                goto done;
            if (!issue) {
                s->l2_pf_filtered++;
                continue;
            }
        }
        long long pblock = PyLong_AsLongLong(pblock_obj);
        if (pblock == -1 && PyErr_Occurred())
            goto done;
        long long fill_latency = s->l2.latency + s->llc.latency;
        int in_llc = PyDict_Contains(s->llc.blocks, pblock_obj);
        if (in_llc < 0)
            goto done;
        if (!in_llc) {
            if (dram_backed_up(s, cycle)) {
                s->l2_pf_dropped_queue++;
                continue;
            }
            long long dram_latency;
            if (dram_prefetch(s, cycle, &s->dram_l2c_prefetch, &dram_latency) < 0)
                goto done;
            fill_latency += dram_latency;
            if (cache_fill(&s->llc, pblock_obj, pblock, cycle + fill_latency, 1, LEVEL_DRAM) < 0)
                goto done;
        }
        s->l2_pf_issued++;
        int fill_l2 = truth(PyTuple_GET_ITEM(item, 1));
        if (fill_l2 < 0)
            goto done;
        if (fill_l2
            && cache_fill(&s->l2, pblock_obj, pblock, cycle + fill_latency, 1, LEVEL_DRAM) < 0)
            goto done;
        if (consult != NULL) {
            /* PPF training metadata travels as a raw (indices, confidence)
             * tuple; the eviction/use hooks hand it back to
             * PerceptronPrefetchFilter.train unchanged. */
            PyObject *metadata = PyTuple_Pack(2, PyTuple_GET_ITEM(consult, 2),
                                              PyTuple_GET_ITEM(consult, 1));
            if (metadata == NULL)
                goto done;
            int set = PyObject_SetItem(s->pending_l2c, pblock_obj, metadata);
            Py_DECREF(metadata);
            if (set < 0)
                goto done;
        }
    }
    rc = 0;
done:
    Py_XDECREF(consult);
    Py_DECREF(seq);
    return rc;
}

/* One L1D prefetch target (_issue_l1d_prefetch + _fetch_for_prefetch for
 * the IPCP/Berti kernels, filtered by SLP when present). */
static int
l1_prefetch_target(Stepper *s, PyObject *tvaddr_obj, PyObject *pc_obj, long long cycle,
                   PyObject *cycle_obj)
{
    s->l1_pf_candidates++;
    long long tvaddr = PyLong_AsLongLong(tvaddr_obj);
    long long tpaddr;
    if ((tvaddr == -1 && PyErr_Occurred()) || translate(s, tvaddr, &tpaddr) < 0)
        return -1;
    long long tblock = tpaddr >> 6;
    PyObject *tblock_obj = PyLong_FromLongLong(tblock);
    if (tblock_obj == NULL)
        return -1;
    int rc = -1;
    PyObject *consult = NULL, *record = NULL;
    int found = PyDict_Contains(s->l1.blocks, tblock_obj);
    if (found < 0)
        goto done;
    if (found) {
        s->l1_pf_dropped_resident++;
        rc = 0;
        goto done;
    }
    if (s->slp_consult != NULL) {
        PyObject *tpaddr_obj = PyLong_FromLongLong(tpaddr);
        if (tpaddr_obj == NULL)
            goto done;
        consult = call3(s->slp_consult, pc_obj, tpaddr_obj, py_bool(s->last_prediction));
        Py_DECREF(tpaddr_obj);
        if (consult == NULL)
            goto done;
        if (!PyTuple_Check(consult) || PyTuple_GET_SIZE(consult) != 3) {
            PyErr_SetString(PyExc_TypeError, "SLP consult_step must return a 3-tuple");
            goto done;
        }
        int issue = truth(PyTuple_GET_ITEM(consult, 0));
        if (issue < 0)
            goto done;
        if (!issue) {
            s->l1_pf_filtered++;
            rc = 0;
            goto done;
        }
    }
    /* The L2 prefetcher observes the prefetch arriving from the level
     * above. */
    if (s->spp_step != NULL) {
        if ((found = PyDict_Contains(s->l2.blocks, tblock_obj)) < 0)
            goto done;
        if (!found && spp_issue(s, pc_obj, tblock_obj, cycle) < 0)
            goto done;
    }
    /* The L2 residency re-check matters: SPP may have just filled this
     * block into the L2. */
    int served;
    long long fetch_latency;
    if ((found = PyDict_Contains(s->l2.blocks, tblock_obj)) < 0)
        goto done;
    if (found) {
        served = LEVEL_L2C;
        fetch_latency = s->l1.latency + s->l2.latency;
    }
    else {
        if ((found = PyDict_Contains(s->llc.blocks, tblock_obj)) < 0)
            goto done;
        if (found) {
            served = LEVEL_LLC;
            fetch_latency = s->l1.latency + s->l2.latency + s->llc.latency;
            if (cache_fill(&s->l2, tblock_obj, tblock, cycle + fetch_latency, 0, -1) < 0)
                goto done;
        }
        else {
            if (dram_backed_up(s, cycle)) {
                s->l1_pf_dropped_queue++;
                rc = 0;
                goto done;
            }
            served = LEVEL_DRAM;
            long long dram_latency;
            if (dram_prefetch(s, cycle, &s->dram_l1d_prefetch, &dram_latency) < 0)
                goto done;
            fetch_latency = s->l1.latency + s->l2.latency + s->llc.latency + dram_latency;
            long long ready = cycle + fetch_latency;
            if (cache_fill(&s->llc, tblock_obj, tblock, ready, 0, -1) < 0
                || cache_fill(&s->l2, tblock_obj, tblock, ready, 0, -1) < 0)
                goto done;
        }
    }
    s->l1_pf_issued++;
    s->pf_served[served]++;
    if (cache_fill(&s->l1, tblock_obj, tblock, cycle + fetch_latency, 1, served) < 0)
        goto done;
    /* on_fill is the L1DPrefetcher base no-op for IPCP/Berti; SLP trains as
     * soon as the serve level is known. */
    if (consult != NULL
        && discard(call3(s->slp_train, PyTuple_GET_ITEM(consult, 2),
                         py_bool(served == LEVEL_DRAM), PyTuple_GET_ITEM(consult, 1))) < 0)
        goto done;
    PyObject *previous = PyDict_GetItemWithError(s->pending_l1, tblock_obj);
    if (previous != NULL) {
        Py_INCREF(previous);
        int finalized = discard(call2(s->finalize_l1, previous, Py_False));
        Py_DECREF(previous);
        if (finalized < 0)
            goto done;
    }
    else if (PyErr_Occurred())
        goto done;
    record = alloc_slots(PrefetchRecordType);
    if (record == NULL)
        goto done;
    PyObject *metadata = PyDict_New();
    if (metadata == NULL)
        goto done;
    slot_set(record, PR_block_addr, tblock_obj);
    slot_set(record, PR_served_by, Levels[served]);
    slot_set(record, PR_issue_cycle, cycle_obj);
    slot_set(record, PR_useful, Py_None);
    SLOT(record, PR_filter_metadata) = metadata;
    if (PyDict_SetItem(s->pending_l1, tblock_obj, record) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(record);
    Py_XDECREF(consult);
    Py_DECREF(tblock_obj);
    return rc;
}

static int
l1_prefetch(Stepper *s, int l1d_hit, PyObject *pc_obj, long long cycle, PyObject *cycle_obj)
{
    PyObject *targets = call1(s->pf_step, py_bool(l1d_hit));
    if (targets == NULL)
        return -1;
    if (targets == Py_None) {
        Py_DECREF(targets);
        return 0;
    }
    PyObject *seq = PySequence_Fast(targets, "step_batch must return a sequence");
    Py_DECREF(targets);
    if (seq == NULL)
        return -1;
    int rc = 0;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    for (Py_ssize_t i = 0; i < n && rc == 0; i++)
        rc = l1_prefetch_target(s, PySequence_Fast_GET_ITEM(seq, i), pc_obj, cycle, cycle_obj);
    Py_DECREF(seq);
    return rc;
}

/* Object-call path for L1D prefetchers without a batch kernel. */
static int
l1_prefetch_generic(Stepper *s, PyObject *pc_obj, PyObject *vaddr_obj, int l1d_hit,
                    PyObject *cycle_obj)
{
    PyObject *candidates = call4(s->on_demand_access, pc_obj, vaddr_obj,
                                 py_bool(l1d_hit), cycle_obj);
    if (candidates == NULL || reload_all(s) < 0) {
        Py_XDECREF(candidates);
        return -1;
    }
    int rc = 0, any = truth(candidates);
    if (any > 0) {
        PyObject *seq = PySequence_Fast(candidates, "prefetch candidates must be a sequence");
        if (seq == NULL)
            rc = -1;
        for (Py_ssize_t i = 0; seq != NULL && i < PySequence_Fast_GET_SIZE(seq) && rc == 0; i++) {
            s->l1_pf_candidates++;
            rc = discard(call3(s->issue_l1d_prefetch, PySequence_Fast_GET_ITEM(seq, i),
                               py_bool(s->last_prediction), cycle_obj));
            if (rc == 0)
                rc = reload_all(s);
        }
        Py_XDECREF(seq);
    }
    Py_DECREF(candidates);
    return any < 0 ? -1 : rc;
}

/* ------------------------------------------------------------------ */
/* One demand access                                                   */
/* ------------------------------------------------------------------ */

/* A speculative off-chip request issued at ``issue_at``; returns the
 * queue-plus-access part of its latency. */
static int
speculative_request(Stepper *s, long long issue_at, long long *latency)
{
    double delay;
    if (dram_transaction(s, issue_at, &delay) < 0)
        return -1;
    s->dram_speculative++;
    *latency = (long long)(delay + (double)s->dram_access_latency);
    return 0;
}

static inline int32_t *
weight(Stepper *s, int feature, long long index)
{
    if (index < 0 || index >= s->table_len[feature]) {
        PyErr_SetString(PyExc_IndexError, "off-chip feature index out of range");
        return NULL;
    }
    return s->tables[feature] + index;
}

/* MemoryHierarchy.demand_access plus the perceptron predict/train, inlined.
 * Returns the latency the core sees. */
static int
demand_access(Stepper *s, long long pc, long long vaddr, int kind, double dispatch,
              long long *latency_out)
{
    long long cycle = (long long)dispatch;
    int is_write = kind == 1;
    int rc = -1;
    PyObject *block_obj = NULL, *pc_obj = NULL, *cycle_obj = NULL;
    PyObject *vaddr_obj = NULL, *paddr_obj = NULL;

    /* -- page translation -- */
    long long paddr;
    if (translate(s, vaddr, &paddr) < 0)
        goto done;
    long long block = paddr >> 6;
    if ((block_obj = PyLong_FromLongLong(block)) == NULL
        || (pc_obj = PyLong_FromLongLong(pc)) == NULL
        || (cycle_obj = PyLong_FromLongLong(cycle)) == NULL)
        goto done;
    if (is_write)
        s->demand_stores++;
    else
        s->demand_loads++;

    /* -- off-chip prediction -- */
    int action = 0, predicted_offchip = 0;
    long long confidence = 0;
    int32_t *w[NUM_FEATURES];
    if (s->predictor_kind != PK_NULL) {
        Py_ssize_t row = s->demand_cursor++;
        if (row >= s->index_rows) {
            PyErr_SetString(PyExc_IndexError, "off-chip index columns exhausted");
            goto done;
        }
        for (int f = 0; f < NUM_FEATURES; f++) {
            if ((w[f] = weight(s, f, s->index[f * s->index_rows + row])) == NULL)
                goto done;
            confidence += *w[f];
        }
        s->predictions++;
        if (confidence >= 0)
            s->positive++;
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
        if (discard(call1(s->record_location, block_obj)) < 0)
            goto done;
        long long dram_latency;
        if (speculative_request(s, cycle + s->predictor_latency, &dram_latency) < 0)
            goto done;
        speculative = 1;
        speculative_ready = s->predictor_latency + dram_latency;
    }

    /* -- L1D lookup -- */
    long long latency = s->l1.latency;
    int prefetch_hit;
    int l1d_hit = cache_lookup(&s->l1, block_obj, cycle, is_write, &latency, &prefetch_hit);
    if (l1d_hit < 0)
        goto done;
    if (prefetch_hit && discard(call1(s->resolve_l1, block_obj)) < 0)
        goto done;

    /* -- L1D prefetcher -- */
    if (s->pf_step != NULL) {
        if (l1_prefetch(s, l1d_hit, pc_obj, cycle, cycle_obj) < 0)
            goto done;
    }
    else if (s->on_demand_access != NULL) {
        if ((vaddr_obj = PyLong_FromLongLong(vaddr)) == NULL
            || l1_prefetch_generic(s, pc_obj, vaddr_obj, l1d_hit, cycle_obj) < 0)
            goto done;
    }

    /* -- selective delay (FLP) -- */
    if (action == 2) {
        if (l1d_hit) {
            s->delayed_saved++;
        }
        else {
            s->speculative_requests++;
            s->delayed_speculative++;
            if (discard(call2(s->record_location, block_obj, Py_True)) < 0)
                goto done;
            long long dram_latency;
            if (speculative_request(s, cycle + s->l1.latency + s->predictor_latency,
                                    &dram_latency) < 0)
                goto done;
            speculative = 1;
            speculative_ready = s->l1.latency + s->predictor_latency + dram_latency;
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
        int l2_hit = cache_lookup(&s->l2, block_obj, cycle, is_write, &latency,
                                  &l2_prefetch_hit);
        if (l2_hit < 0)
            goto done;
        if (l2_prefetch_hit && discard(call1(s->resolve_l2, block_obj)) < 0)
            goto done;

        /* SPP observes L2 demand accesses. */
        if (s->spp_step != NULL) {
            if (spp_issue(s, pc_obj, block_obj, cycle) < 0)
                goto done;
        }
        else if (s->run_l2_prefetcher != NULL) {
            if ((paddr_obj = PyLong_FromLongLong(paddr)) == NULL
                || discard(call4(s->run_l2_prefetcher, pc_obj, paddr_obj,
                                 py_bool(l2_hit), cycle_obj)) < 0
                || reload_all(s) < 0)
                goto done;
        }

        if (l2_hit) {
            if (cache_fill(&s->l1, block_obj, block, cycle + latency, 0, -1) < 0)
                goto done;
            s->served[LEVEL_L2C]++;
        }
        else {
            latency += s->llc.latency;
            int llc_prefetch_hit;
            int llc_hit = cache_lookup(&s->llc, block_obj, cycle, is_write, &latency,
                                       &llc_prefetch_hit);
            if (llc_hit < 0)
                goto done;
            if (llc_hit) {
                if (cache_fill(&s->l1, block_obj, block, cycle + latency, 0, -1) < 0
                    || cache_fill(&s->l2, block_obj, block, cycle + latency, 0, -1) < 0)
                    goto done;
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
                    double delay;
                    if (dram_transaction(s, cycle + latency, &delay) < 0)
                        goto done;
                    s->dram_demand++;
                    dram_latency = (long long)(delay + (double)s->dram_access_latency);
                }
                latency += dram_latency;
                long long ready = cycle + latency;
                if (cache_fill(&s->llc, block_obj, block, ready, 0, -1) < 0
                    || cache_fill(&s->l2, block_obj, block, ready, 0, -1) < 0
                    || cache_fill(&s->l1, block_obj, block, ready, 0, -1) < 0)
                    goto done;
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
    if (s->predictor_kind != PK_NULL) {
        s->training_events++;
        int predicted_positive = confidence >= 0;
        if (predicted_positive == went_offchip)
            s->correct++;
        long long magnitude = confidence >= 0 ? confidence : -confidence;
        if (predicted_positive != went_offchip
            || (double)magnitude < s->training_threshold) {
            for (int f = 0; f < NUM_FEATURES; f++) {
                long long updated = (long long)*w[f] + (went_offchip ? 1 : -1);
                if (went_offchip && updated > s->hi[f])
                    updated = s->hi[f];
                else if (!went_offchip && updated < s->lo[f])
                    updated = s->lo[f];
                *w[f] = (int32_t)updated;
            }
            s->weight_updates++;
        }
    }

    if (kind == 0) {
        *latency_out = effective_latency;
        s->loads++;
        s->total_load_latency += (double)effective_latency;
    }
    else {
        *latency_out = 1;
        s->stores++;
    }
    rc = 0;
done:
    Py_XDECREF(block_obj);
    Py_XDECREF(pc_obj);
    Py_XDECREF(cycle_obj);
    Py_XDECREF(vaddr_obj);
    Py_XDECREF(paddr_obj);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Chunks, core timing and the iterator protocol                       */
/* ------------------------------------------------------------------ */

static void
release_index(Stepper *s)
{
    if (s->have_index) {
        PyBuffer_Release(&s->index_buf);
        s->have_index = 0;
    }
    Py_CLEAR(s->index_columns);
    s->index = NULL;
    s->index_rows = 0;
}

/* Vectorized per-chunk precompute (a Python callback): the off-chip index
 * columns as one (5, demand records) int64 array, or None. */
static int
begin_chunk(Stepper *s)
{
    s->chunk_stop = s->pos + s->chunk_records;
    if (s->chunk_stop > s->total)
        s->chunk_stop = s->total;
    s->in_chunk = 1;
    s->demand_cursor = 0;
    release_index(s);
    if (s->begin_chunk == NULL)
        return 0;
    PyObject *start = PyLong_FromSsize_t(s->pos);
    PyObject *stop = PyLong_FromSsize_t(s->chunk_stop);
    PyObject *columns = (start && stop) ? call2(s->begin_chunk, start, stop) : NULL;
    Py_XDECREF(start);
    Py_XDECREF(stop);
    if (columns == NULL)
        return -1;
    s->index_columns = columns;
    if (s->predictor_kind == PK_NULL)
        return 0;
    if (PyObject_GetBuffer(columns, &s->index_buf, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    s->have_index = 1;
    if (s->index_buf.ndim != 2 || s->index_buf.itemsize != 8
        || s->index_buf.shape[0] != NUM_FEATURES) {
        PyErr_SetString(PyExc_TypeError, "off-chip index columns must be (5, n) int64");
        return -1;
    }
    s->index = (const int64_t *)s->index_buf.buf;
    s->index_rows = s->index_buf.shape[1];
    return 0;
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
        || add_attr(h, S_l2c_prefetches_issued, s->l2_pf_issued) < 0)
        return -1;
    PyObject *served = PyObject_GetAttr(h, S_served_by);
    PyObject *pf_served = served ? PyObject_GetAttr(h, S_l1d_prefetch_served_by) : NULL;
    int rc = pf_served ? 0 : -1;
    for (int level = 0; level < 4 && rc == 0; level++) {
        if (add_item(served, Levels[level], s->served[level]) < 0
            || add_item(pf_served, Levels[level], s->pf_served[level]) < 0)
            rc = -1;
        s->served[level] = s->pf_served[level] = 0;
    }
    Py_XDECREF(served);
    Py_XDECREF(pf_served);
    s->demand_loads = s->demand_stores = s->offchip_predictions = 0;
    s->speculative_requests = s->delayed_speculative = s->delayed_saved = 0;
    s->l1_pf_candidates = s->l1_pf_dropped_resident = s->l1_pf_filtered = 0;
    s->l1_pf_dropped_queue = s->l1_pf_issued = 0;
    s->l2_pf_candidates = s->l2_pf_dropped_resident = s->l2_pf_filtered = 0;
    s->l2_pf_dropped_queue = s->l2_pf_issued = 0;
    return rc;
}

static int
flush_predictor(Stepper *s)
{
    if (s->predictor_kind == PK_NULL)
        return 0;
    PyObject *p = s->pstats;
    if (add_attr(p, S_predictions, s->predictions) < 0
        || add_attr(p, S_positive_predictions, s->positive) < 0
        || add_attr(p, S_training_events, s->training_events) < 0
        || add_attr(p, S_correct_predictions, s->correct) < 0
        || add_attr(p, S_weight_updates, s->weight_updates) < 0
        || PyObject_SetAttr(s->predictor, S_last_prediction, py_bool(s->last_prediction)) < 0)
        return -1;
    if (s->predictor_kind == PK_FLP
        && (add_attr(s->predictor, S_immediate_decisions, s->flp_immediate) < 0
            || add_attr(s->predictor, S_delayed_decisions, s->flp_delayed) < 0
            || add_attr(s->predictor, S_negative_decisions, s->flp_negative) < 0))
        return -1;
    s->predictions = s->positive = s->training_events = s->correct = 0;
    s->weight_updates = s->flp_immediate = s->flp_delayed = s->flp_negative = 0;
    return 0;
}

/* Add the chunk's counters to their stats objects, then sample. */
static int
end_chunk(Stepper *s)
{
    s->in_chunk = 0;
    if (flush_hierarchy(s) < 0 || cache_flush(&s->l1) < 0 || cache_flush(&s->l2) < 0
        || cache_flush(&s->llc) < 0 || flush_dram(s) < 0 || flush_predictor(s) < 0)
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
        && discard(call3(s->sample_hook, accesses_obj, instructions, cycles)) == 0
        && reload_all(s) == 0)
        rc = 0;
    Py_XDECREF(accesses_obj);
    Py_XDECREF(done_obj);
    Py_XDECREF(base);
    Py_XDECREF(instructions);
    Py_XDECREF(cycles);
    s->next_sample = (accesses / s->sample_interval + 1) * s->sample_interval;
    return rc;
}

/* Write the core runner's state back (end of the trace). */
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

/* Advance to the next load/store (returning its dispatch cycle, when
 * ``yield_memory``) or to the end of the trace (returning NULL without an
 * exception).  NULL with an exception set on error. */
static PyObject *
advance(Stepper *s, int yield_memory)
{
    if (s->finished)
        return NULL;
    for (;;) {
        double dispatch;
        if (s->pending) {
            s->pending = 0;
            dispatch = s->pending_dispatch;
            /* Other cores of a mix ran while this one was paused. */
            if (reload_shared(s) < 0)
                goto error;
        }
        else {
            if (s->pos == s->chunk_stop) {
                if (s->in_chunk && end_chunk(s) < 0)
                    goto error;
                if (s->pos == s->total) {
                    s->finished = 1;
                    release_index(s);
                    finish(s); /* NULL either way; an error stays set */
                    return NULL;
                }
                if (begin_chunk(s) < 0)
                    goto error;
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
            if (yield_memory) {
                s->pending = 1;
                s->pending_dispatch = dispatch;
                return PyFloat_FromDouble(dispatch);
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
    release_index(s);
    return NULL;
}

static PyObject *
stepper_next(Stepper *s)
{
    return advance(s, 1);
}

static PyObject *
stepper_run(Stepper *s, PyObject *Py_UNUSED(ignored))
{
    if (advance(s, 0) != NULL || PyErr_Occurred())
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

/* Optional callable: None becomes NULL. */
static PyObject *
optional(PyObject *value)
{
    return value == Py_None ? NULL : Py_NewRef(value);
}

static int
init_predictor(Stepper *s, PyObject *predictor)
{
    s->predictor = Py_NewRef(predictor);
    if (s->predictor_kind == PK_NULL)
        return 0;
    int rc = -1;
    PyObject *perceptron = NULL, *tables = NULL, *limits = NULL, *last = NULL;
    if ((perceptron = PyObject_GetAttr(predictor, S_perceptron)) == NULL
        || (s->pstats = PyObject_GetAttr(perceptron, S_stats)) == NULL
        || (tables = PyObject_GetAttr(perceptron, S__tables)) == NULL
        || (limits = PyObject_GetAttr(perceptron, S__weight_limits)) == NULL
        || get_double(perceptron, S_training_threshold, &s->training_threshold) < 0
        || (last = PyObject_GetAttr(predictor, S_last_prediction)) == NULL
        || (s->last_prediction = truth(last)) < 0)
        goto done;
    if (PySequence_Size(tables) != NUM_FEATURES || PySequence_Size(limits) != NUM_FEATURES) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "the fused kernel models five feature tables");
        goto done;
    }
    for (int f = 0; f < NUM_FEATURES; f++) {
        PyObject *table = PySequence_GetItem(tables, f);
        PyObject *bound = PySequence_GetItem(limits, f);
        int ok = table && bound
                 && PyArg_ParseTuple(bound, "LL", &s->lo[f], &s->hi[f])
                 && PyObject_GetBuffer(table, &s->table_bufs[f],
                                       PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) == 0;
        Py_XDECREF(table);
        Py_XDECREF(bound);
        if (!ok)
            goto done;
        s->have_tables = f + 1;
        if (s->table_bufs[f].itemsize != 4 || s->table_bufs[f].ndim != 1) {
            PyErr_SetString(PyExc_TypeError, "perceptron weights must be int32");
            goto done;
        }
        s->tables[f] = (int32_t *)s->table_bufs[f].buf;
        s->table_len[f] = s->table_bufs[f].shape[0];
    }
    if (s->predictor_kind == PK_HERMES) {
        if (get_double(predictor, S_activation_threshold, &s->activation_threshold) < 0)
            goto done;
    }
    else {
        PyObject *delay = PyObject_GetAttr(predictor, S_selective_delay);
        if (delay == NULL)
            goto done;
        s->selective_delay = truth(delay);
        Py_DECREF(delay);
        if (s->selective_delay < 0
            || get_double(predictor, S_tau_high, &s->tau_high) < 0
            || get_double(predictor, S_tau_low, &s->tau_low) < 0)
            goto done;
    }
    rc = 0;
done:
    Py_XDECREF(perceptron);
    Py_XDECREF(tables);
    Py_XDECREF(limits);
    Py_XDECREF(last);
    return rc;
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
    if ((l1d = PyObject_GetAttr(h, S_l1d)) == NULL || cache_init(&s->l1, l1d) < 0
        || (l2c = PyObject_GetAttr(h, S_l2c)) == NULL || cache_init(&s->l2, l2c) < 0
        || (llc = PyObject_GetAttr(h, S_llc)) == NULL || cache_init(&s->llc, llc) < 0
        || (s->dram = PyObject_GetAttr(h, S_dram)) == NULL
        || (s->dram_stats = PyObject_GetAttr(s->dram, S_stats)) == NULL
        || get_double(s->dram, S__busy_until, &s->busy_until) < 0
        || get_double(s->dram, S__cycles_per_transaction, &s->cycles_per_transaction) < 0
        || (config = PyObject_GetAttr(s->dram, S_config)) == NULL
        || get_ll(config, S_access_latency, &s->dram_access_latency) < 0
        || (page_table = PyObject_GetAttr(h, S_page_table)) == NULL
        || (s->page_map = PyObject_GetAttr(page_table, S__mapping)) == NULL
        || (s->allocate_frame = PyObject_GetAttr(page_table, S__allocate_frame)) == NULL
        || (s->hstats = PyObject_GetAttr(h, S_stats)) == NULL
        || (s->record_location = PyObject_GetAttr(h, S__record_offchip_prediction_location)) == NULL
        || (s->resolve_l1 = PyObject_GetAttr(h, S__resolve_l1d_prefetch_use)) == NULL
        || (s->resolve_l2 = PyObject_GetAttr(h, S__resolve_l2c_prefetch_use)) == NULL
        || (s->issue_l1d_prefetch = PyObject_GetAttr(h, S__issue_l1d_prefetch)) == NULL
        || (s->finalize_l1 = PyObject_GetAttr(h, S__finalize_l1d_prefetch)) == NULL
        || (s->pending_l1 = PyObject_GetAttr(h, S__pending_l1d_prefetches)) == NULL
        || (s->pending_l2c = PyObject_GetAttr(h, S__pending_l2c_prefetches)) == NULL
        || get_ll(h, S__predictor_latency, &s->predictor_latency) < 0
        || get_double(h, S__prefetch_drop_queue_cycles, &s->drop_cycles) < 0)
        goto done;
    if (!PyDict_CheckExact(s->page_map) || !PyDict_CheckExact(s->pending_l1)) {
        PyErr_SetString(PyExc_TypeError, "page map and pending prefetches must be dicts");
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

static PyTypeObject StepperType;

static PyObject *
stepper_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {
        "runner", "hierarchy", "pcs", "vaddrs", "kinds", "kind_non_mem",
        "chunk_records", "begin_chunk", "predictor_kind", "kernels",
        "sample_hook", "sample_interval", NULL};
    PyObject *runner, *hierarchy, *pcs, *vaddrs, *kinds, *begin, *kernels, *hook;
    int kind_non_mem, predictor_kind;
    Py_ssize_t chunk_records;
    long long sample_interval;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOinOiOOL", keywords, &runner,
                                     &hierarchy, &pcs, &vaddrs, &kinds, &kind_non_mem,
                                     &chunk_records, &begin, &predictor_kind, &kernels,
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
    PyObject *pf_step, *slp_consult, *slp_train, *spp_step, *ppf_consult, *on_demand, *run_l2;
    if (!PyArg_ParseTuple(kernels, "OOOOOOO;kernels must be a 7-tuple", &pf_step,
                          &slp_consult, &slp_train, &spp_step, &ppf_consult, &on_demand,
                          &run_l2))
        return NULL;
    if (load_model_types() < 0)
        return NULL;
    Stepper *s = (Stepper *)type->tp_alloc(type, 0);
    if (s == NULL)
        return NULL;
    s->kind_non_mem = kind_non_mem;
    s->chunk_records = chunk_records;
    s->predictor_kind = predictor_kind;
    s->begin_chunk = optional(begin);
    s->pf_step = optional(pf_step);
    s->slp_consult = optional(slp_consult);
    s->slp_train = optional(slp_train);
    s->spp_step = optional(spp_step);
    s->ppf_consult = optional(ppf_consult);
    s->on_demand_access = optional(on_demand);
    s->run_l2_prefetcher = optional(run_l2);
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
    if (predictor_ok < 0)
        goto error;
    return (PyObject *)s;
error:
    Py_DECREF(s);
    return NULL;
}

static void
release_buffers(Stepper *s)
{
    release_index(s);
    if (s->have_columns) {
        PyBuffer_Release(&s->pc_buf);
        PyBuffer_Release(&s->vaddr_buf);
        PyBuffer_Release(&s->kind_buf);
        s->have_columns = 0;
    }
    for (int f = 0; f < s->have_tables; f++)
        PyBuffer_Release(&s->table_bufs[f]);
    s->have_tables = 0;
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
    .tp_doc = "One core's trace through its hierarchy; yields each load/store's "
              "dispatch cycle before performing it.",
    .tp_basicsize = sizeof(Stepper),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = stepper_new,
    .tp_dealloc = (destructor)stepper_dealloc,
    .tp_traverse = (traverseproc)stepper_traverse,
    .tp_clear = (inquiry)stepper_clear,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)stepper_next,
    .tp_methods = stepper_methods,
};

static struct PyModuleDef fused_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fused",
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
