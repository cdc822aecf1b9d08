/* Native kernel for the columnar arena's stride-5 record hot path.
 *
 * One `Kernel` instance serves one `ArenaDataStructure`: it keeps a flat
 * slot -> slab table over the *same* `array('q')` record buffers and
 * slab-local `prods` lists the Python arena owns (buffers are held through
 * the buffer protocol, so Python-side cold paths — snapshots, validation
 * helpers, introspection — keep reading the very memory this module writes),
 * and implements the record operations of the hot path natively:
 *
 *   - `extend`: pointer-bump allocation of one packed record;
 *   - `union`: the iterative descend-then-rebuild path copy;
 *   - `extend_onto`: `union(entry, extend(.., ()))` for the k label sets
 *     one label id names (a label set, or a label run the arena interned),
 *     as one record;
 *   - `release_scan`: the eviction sweep's slab head advance over the
 *     expired sealed slabs;
 *   - `walk`: the pruning enumeration walk over the union tree.
 *
 * The contract with `repro.core.arena` (keep the two sides in sync):
 *
 *   - record layout is `pos, ms, ul, ur, meta` at word offset `index * 5`,
 *     `meta = (prod_ref << 32) | (label_id << 1) | direction`, `prod_ref`
 *     0 for childless nodes and otherwise 1 + an index into the slab's
 *     `prods` list (union copies re-append the shared child tuple into the
 *     target slab's list, exactly as the Python implementation does);
 *   - registered buffers are preallocated to full slab capacity and never
 *     resized while registered (the export holds a buffer, so a resize
 *     attempt would raise `BufferError` — by design);
 *   - slab fill (`count`) and `max_ms` are canonical *here*
 *     while a kernel is attached; the arena mirrors them back at seal /
 *     snapshot time via `slab_meta`;
 *   - when the current slab fills (or passes its seal deadline) mid
 *     operation, the kernel calls the arena's `request_slab(position)`
 *     callback, which seals, allocates, registers and `set_current`s a
 *     fresh slab, after which the operation continues — so whole union
 *     paths and whole candidate batches run per crossing instead of one
 *     FFI call per record read.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define K_STRIDE 5
#define K_SLOT_BITS 6
#define K_NEVER (-((int64_t)1 << 62))
#define K_META_LOW ((int64_t)0xFFFFFFFFLL)
#define K_META_LABEL_DIRN ((int64_t)0xFFFFFFFELL)
#define K_RECORD_BYTES (8 * K_STRIDE)

/* How many leading released slots accumulate before the slot table is
 * compacted (slabs release strictly in allocation order, so the prefix up
 * to the release cursor is always entirely NULL). */
#define K_COMPACT_THRESHOLD 16384

typedef struct {
    Py_buffer view;   /* exported buffer of the slab's array('q'); holds a ref */
    int64_t *data;
    PyObject *prods;  /* strong ref to the slab-local child-tuple list */
    int64_t base;
    int64_t span;
    int64_t cap;      /* records the buffer can hold */
    int64_t count;
    int64_t max_ms;
} KSlab;

typedef struct {
    PyObject_HEAD
    KSlab **slots;          /* index: slot - floor */
    Py_ssize_t slots_len;   /* allocated entries */
    Py_ssize_t used;        /* entries in use (highest registered rel + 1) */
    int64_t floor;          /* slot id of slots[0] */
    KSlab *cur;             /* allocation target (never released) */
    int64_t seal_deadline;
    int64_t window;
    PyObject *request_slab; /* callable(position) -> None; may be NULL */
    int64_t nodes_created;
    int64_t union_calls;
    int64_t union_copies;
    int64_t allocated;
} KernelObject;

static PyObject *k_empty_tuple;  /* shared () for childless walk emits */

static void
k_free_slab(KSlab *slab)
{
    PyBuffer_Release(&slab->view);
    Py_XDECREF(slab->prods);
    PyMem_Free(slab);
}

static inline KSlab *
k_slab_at_slot(KernelObject *self, int64_t slot)
{
    Py_ssize_t rel = (Py_ssize_t)(slot - self->floor);
    if (rel < 0 || rel >= self->used) {
        return NULL;
    }
    return self->slots[rel];
}

static inline KSlab *
k_slab_for(KernelObject *self, int64_t node)
{
    return k_slab_at_slot(self, node >> K_SLOT_BITS);
}

static int
k_ensure_slots(KernelObject *self, Py_ssize_t rel_end)
{
    Py_ssize_t grown;
    KSlab **table;
    if (rel_end <= self->slots_len) {
        return 0;
    }
    grown = self->slots_len ? self->slots_len : 1024;
    while (grown < rel_end) {
        grown *= 2;
    }
    table = (KSlab **)PyMem_Realloc(self->slots, (size_t)grown * sizeof(KSlab *));
    if (table == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(table + self->slots_len, 0,
           (size_t)(grown - self->slots_len) * sizeof(KSlab *));
    self->slots = table;
    self->slots_len = grown;
    return 0;
}

/* Allocate one record at the current position, invoking the arena's
 * request_slab callback when the current slab is full or past its seal
 * deadline.  Returns the slab written into and sets *rec; NULL on error. */
static KSlab *
k_alloc(KernelObject *self, int64_t position, int64_t **rec)
{
    KSlab *slab = self->cur;
    if (slab == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "kernel has no current slab");
        return NULL;
    }
    if (slab->count >= slab->cap ||
        (slab->count && position > self->seal_deadline)) {
        PyObject *result;
        if (self->request_slab == NULL) {
            PyErr_SetString(PyExc_RuntimeError,
                            "current slab is full and no request_slab "
                            "callback is installed");
            return NULL;
        }
        result = PyObject_CallFunction(self->request_slab, "L",
                                       (long long)position);
        if (result == NULL) {
            return NULL;
        }
        Py_DECREF(result);
        slab = self->cur;
        if (slab == NULL || slab->count >= slab->cap) {
            PyErr_SetString(PyExc_RuntimeError,
                            "request_slab did not install a writable slab");
            return NULL;
        }
    }
    *rec = slab->data + slab->count * K_STRIDE;
    return slab;
}

static inline int64_t
k_as_int64(PyObject *value, int *error)
{
    int64_t result = PyLong_AsLongLong(value);
    if (result == -1 && PyErr_Occurred()) {
        *error = 1;
    }
    return result;
}

/* ------------------------------------------------------------- registry */

static PyObject *
Kernel_register_slab(KernelObject *self, PyObject *args)
{
    long long first_slot, span, base, count, max_ms;
    PyObject *array_obj, *prods;
    KSlab *slab;
    Py_ssize_t rel, j;

    if (!PyArg_ParseTuple(args, "LLLOOLL", &first_slot, &span, &base,
                          &array_obj, &prods, &count, &max_ms)) {
        return NULL;
    }
    if (!PyList_Check(prods)) {
        PyErr_SetString(PyExc_TypeError, "prods must be a list");
        return NULL;
    }
    slab = (KSlab *)PyMem_Calloc(1, sizeof(KSlab));
    if (slab == NULL) {
        return PyErr_NoMemory();
    }
    if (PyObject_GetBuffer(array_obj, &slab->view, PyBUF_CONTIG) < 0) {
        PyMem_Free(slab);
        return NULL;
    }
    if (slab->view.len % K_RECORD_BYTES != 0) {
        PyBuffer_Release(&slab->view);
        PyMem_Free(slab);
        PyErr_SetString(PyExc_ValueError,
                        "slab buffer length is not a whole number of "
                        "stride-5 records");
        return NULL;
    }
    slab->data = (int64_t *)slab->view.buf;
    Py_INCREF(prods);
    slab->prods = prods;
    slab->base = base;
    slab->span = span;
    slab->cap = slab->view.len / K_RECORD_BYTES;
    slab->count = count;
    slab->max_ms = max_ms;

    if (self->used == 0) {
        self->floor = first_slot;
    }
    rel = (Py_ssize_t)(first_slot - self->floor);
    if (rel < 0) {
        k_free_slab(slab);
        PyErr_SetString(PyExc_ValueError,
                        "slab slot is below the kernel's slot floor");
        return NULL;
    }
    if (k_ensure_slots(self, rel + (Py_ssize_t)span) < 0) {
        k_free_slab(slab);
        return NULL;
    }
    for (j = 0; j < (Py_ssize_t)span; j++) {
        if (self->slots[rel + j] != NULL) {
            k_free_slab(slab);
            PyErr_SetString(PyExc_ValueError, "slot already registered");
            return NULL;
        }
        self->slots[rel + j] = slab;
    }
    if (rel + (Py_ssize_t)span > self->used) {
        self->used = rel + (Py_ssize_t)span;
    }
    Py_RETURN_NONE;
}

static PyObject *
Kernel_set_current(KernelObject *self, PyObject *args)
{
    long long first_slot, seal_deadline;
    KSlab *slab;
    if (!PyArg_ParseTuple(args, "LL", &first_slot, &seal_deadline)) {
        return NULL;
    }
    slab = k_slab_at_slot(self, first_slot);
    if (slab == NULL) {
        PyErr_SetString(PyExc_ValueError, "no slab registered at that slot");
        return NULL;
    }
    self->cur = slab;
    self->seal_deadline = seal_deadline;
    Py_RETURN_NONE;
}

static PyObject *
Kernel_set_request_slab(KernelObject *self, PyObject *callback)
{
    if (callback == Py_None) {
        Py_CLEAR(self->request_slab);
    }
    else {
        Py_INCREF(callback);
        Py_XSETREF(self->request_slab, callback);
    }
    Py_RETURN_NONE;
}

static PyObject *
Kernel_write_sentinel(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    KSlab *slab = self->cur;
    int64_t *rec;
    if (slab == NULL || slab->cap < 1) {
        PyErr_SetString(PyExc_RuntimeError, "no current slab for the sentinel");
        return NULL;
    }
    rec = slab->data;
    rec[0] = -1;
    rec[1] = K_NEVER;
    rec[2] = 0;
    rec[3] = 0;
    rec[4] = 0;
    slab->count = 1;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------ hot path */

static PyObject *
Kernel_extend(KernelObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int error = 0;
    int64_t position, max_start, label_id, meta, id;
    PyObject *children;
    KSlab *slab;
    int64_t *rec;
    Py_ssize_t nchildren = 0;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "extend expects (position, max_start, label_id, children)");
        return NULL;
    }
    position = k_as_int64(args[0], &error);
    max_start = k_as_int64(args[1], &error);
    label_id = k_as_int64(args[2], &error);
    if (error) {
        return NULL;
    }
    children = args[3];
    if (children != Py_None) {
        nchildren = PySequence_Size(children);
        if (nchildren < 0) {
            return NULL;
        }
    }
    slab = k_alloc(self, position, &rec);
    if (slab == NULL) {
        return NULL;
    }
    meta = label_id << 1;
    if (nchildren > 0) {
        PyObject *tuple = PySequence_Tuple(children);
        if (tuple == NULL) {
            return NULL;
        }
        if (PyList_Append(slab->prods, tuple) < 0) {
            Py_DECREF(tuple);
            return NULL;
        }
        Py_DECREF(tuple);
        meta |= (int64_t)PyList_GET_SIZE(slab->prods) << 32;
    }
    id = slab->base + slab->count;
    rec[0] = position;
    rec[1] = max_start;
    rec[2] = 0;
    rec[3] = 0;
    rec[4] = meta;
    slab->count++;
    if (max_start > slab->max_ms) {
        slab->max_ms = max_start;
    }
    self->nodes_created++;
    self->allocated++;
    return PyLong_FromLongLong(id);
}

/* union(entry, extend(L, position, ())) for each of the k label sets a
 * label id names (k = 1: a label set, k >= 2: a label run), as one record:
 * a childless node's max_start is its position, which dominates every
 * stored entry, so each union is fresh-on-top (or the fresh node alone once
 * the entry expired).  The record carries the direction bit of the k-record
 * chain's top; the counters but `allocated` count the chain.  Mirrors
 * ArenaDataStructure.extend_onto. */
static PyObject *
Kernel_extend_onto(KernelObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int error = 0;
    int64_t position, entry, label_id, k, dirn, ul = 0;
    KSlab *slab;
    int64_t *rec;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "extend_onto expects (position, entry, label_id, k)");
        return NULL;
    }
    position = k_as_int64(args[0], &error);
    entry = k_as_int64(args[1], &error);
    label_id = k_as_int64(args[2], &error);
    k = k_as_int64(args[3], &error);
    if (error) {
        return NULL;
    }
    if (k < 1) {
        PyErr_SetString(PyExc_ValueError, "extend_onto needs k >= 1 label sets");
        return NULL;
    }
    dirn = (k - 1) & 1; /* one flip per chain record above the first */
    if (entry) {
        /* Read the old top before k_alloc: request_slab runs python code. */
        KSlab *old = k_slab_for(self, entry);
        if (old != NULL) {
            int64_t *old_rec = old->data + (entry - old->base) * K_STRIDE;
            if (position - old_rec[1] <= self->window) {
                ul = entry;
                dirn ^= (old_rec[4] & 1) ^ 1;
            }
        }
    }
    slab = k_alloc(self, position, &rec);
    if (slab == NULL) {
        return NULL;
    }
    rec[0] = position;
    rec[1] = position;
    rec[2] = ul;
    rec[3] = 0;
    rec[4] = (label_id << 1) | dirn;
    if (position > slab->max_ms) {
        slab->max_ms = position;
    }
    self->union_calls += k - (entry == 0);
    self->union_copies += k - (ul == 0);
    self->nodes_created += k;
    self->allocated++;
    return PyLong_FromLongLong(slab->base + slab->count++);
}

typedef struct {
    KSlab *slab;
    int64_t *rec;
    int went_left;
} KFrame;

static PyObject *
Kernel_union(KernelObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int error = 0;
    int64_t left, fresh, position, fresh_ms;
    KSlab *fresh_slab;
    int64_t *fresh_rec;
    int64_t current, new_id = 0, copies = 0, window;
    KFrame stack_frames[64];
    KFrame *frames = stack_frames;
    Py_ssize_t depth = 0, frames_cap = 64, i;
    PyObject *result = NULL;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "union expects (left, fresh, position, fresh_ms)");
        return NULL;
    }
    left = k_as_int64(args[0], &error);
    fresh = k_as_int64(args[1], &error);
    position = k_as_int64(args[2], &error);
    fresh_ms = k_as_int64(args[3], &error);
    if (error) {
        return NULL;
    }
    fresh_slab = fresh ? k_slab_for(self, fresh) : NULL;
    if (fresh_slab == NULL) {
        PyErr_SetString(PyExc_ValueError,
                        "the second argument of union must be a live product node");
        return NULL;
    }
    fresh_rec = fresh_slab->data + (fresh - fresh_slab->base) * K_STRIDE;
    self->union_calls++;
    window = self->window;
    current = left;

    /* Descend: collect the copy path. */
    for (;;) {
        KSlab *slab = current ? k_slab_for(self, current) : NULL;
        int64_t *rec, node_ms;
        if (slab == NULL) {
            new_id = fresh;  /* bottom, or a released (fully expired) slab */
            break;
        }
        rec = slab->data + (current - slab->base) * K_STRIDE;
        node_ms = rec[1];
        if (position - node_ms > window) {
            new_id = fresh;  /* expired subtree: prune */
            break;
        }
        copies++;
        if (fresh_ms >= node_ms) {
            /* Fresh dominates: it becomes the new top, old tree below. */
            KSlab *target;
            int64_t *trec, fresh_meta, meta, ref;
            target = k_alloc(self, position, &trec);
            if (target == NULL) {
                goto fail;
            }
            fresh_meta = fresh_rec[4];
            meta = (fresh_meta & K_META_LABEL_DIRN) | ((rec[4] & 1) ? 0 : 1);
            ref = fresh_meta >> 32;
            if (ref) {
                if (PyList_Append(target->prods,
                                  PyList_GET_ITEM(fresh_slab->prods, ref - 1)) < 0) {
                    goto fail;
                }
                meta = (meta & K_META_LOW) |
                       ((int64_t)PyList_GET_SIZE(target->prods) << 32);
            }
            new_id = target->base + target->count;
            trec[0] = position;
            trec[1] = fresh_ms;
            trec[2] = current;
            trec[3] = 0;
            trec[4] = meta;
            target->count++;
            if (fresh_ms > target->max_ms) {
                target->max_ms = fresh_ms;
            }
            break;
        }
        if (depth >= frames_cap) {
            Py_ssize_t grown_cap = frames_cap * 2;
            if (frames == stack_frames) {
                KFrame *heap = (KFrame *)PyMem_Malloc((size_t)grown_cap * sizeof(KFrame));
                if (heap == NULL) {
                    PyErr_NoMemory();
                    goto fail;
                }
                memcpy(heap, frames, (size_t)depth * sizeof(KFrame));
                frames = heap;
            }
            else {
                KFrame *heap = (KFrame *)PyMem_Realloc(frames, (size_t)grown_cap * sizeof(KFrame));
                if (heap == NULL) {
                    PyErr_NoMemory();
                    goto fail;
                }
                frames = heap;
            }
            frames_cap = grown_cap;
        }
        frames[depth].slab = slab;
        frames[depth].rec = rec;
        if (rec[4] & 1) {
            frames[depth].went_left = 1;
            current = rec[2];
        }
        else {
            frames[depth].went_left = 0;
            current = rec[3];
        }
        depth++;
    }

    /* Rebuild the copied path bottom-up. */
    for (i = depth - 1; i >= 0; i--) {
        KSlab *slab = frames[i].slab;
        int64_t *rec = frames[i].rec;
        KSlab *target;
        int64_t *trec, node_ms, old_meta, meta, ref, ul, ur, dirn;
        target = k_alloc(self, position, &trec);
        if (target == NULL) {
            goto fail;
        }
        node_ms = rec[1];
        old_meta = rec[4];
        if (frames[i].went_left) {
            ul = new_id;
            ur = rec[3];
            dirn = 0;
        }
        else {
            ul = rec[2];
            ur = new_id;
            dirn = 1;
        }
        meta = (old_meta & K_META_LABEL_DIRN) | dirn;
        ref = old_meta >> 32;
        if (ref) {
            if (PyList_Append(target->prods,
                              PyList_GET_ITEM(slab->prods, ref - 1)) < 0) {
                goto fail;
            }
            meta = (meta & K_META_LOW) |
                   ((int64_t)PyList_GET_SIZE(target->prods) << 32);
        }
        new_id = target->base + target->count;
        trec[0] = rec[0];
        trec[1] = node_ms;
        trec[2] = ul;
        trec[3] = ur;
        trec[4] = meta;
        target->count++;
        if (node_ms > target->max_ms) {
            target->max_ms = node_ms;
        }
    }
    if (copies) {
        self->union_copies += copies;
        self->nodes_created += copies;
        self->allocated += copies;
    }
    result = PyLong_FromLongLong(new_id);
fail:
    if (frames != stack_frames) {
        PyMem_Free(frames);
    }
    return result;
}

/* --------------------------------------------------------- reclamation */

static PyObject *
Kernel_release_scan(KernelObject *self, PyObject *args)
{
    long long cursor, position;
    long released = 0;
    if (!PyArg_ParseTuple(args, "LL", &cursor, &position)) {
        return NULL;
    }
    for (;;) {
        KSlab *slab = k_slab_at_slot(self, cursor);
        Py_ssize_t rel, j;
        int64_t span;
        if (slab == NULL || slab == self->cur) {
            break;
        }
        if (position - slab->max_ms <= self->window) {
            break;
        }
        span = slab->span;
        rel = (Py_ssize_t)(cursor - self->floor);
        for (j = 0; j < (Py_ssize_t)span; j++) {
            self->slots[rel + j] = NULL;
        }
        k_free_slab(slab);
        cursor += span;
        released++;
    }
    if (released) {
        /* The prefix below the release cursor is entirely NULL (slabs
         * release strictly in allocation order); shift it out once it is
         * large so the slot table stays O(retained slabs). */
        Py_ssize_t lead = (Py_ssize_t)(cursor - self->floor);
        if (lead >= K_COMPACT_THRESHOLD && lead * 2 >= self->used) {
            memmove(self->slots, self->slots + lead,
                    (size_t)(self->used - lead) * sizeof(KSlab *));
            memset(self->slots + (self->used - lead), 0,
                   (size_t)lead * sizeof(KSlab *));
            self->floor += lead;
            self->used -= lead;
        }
    }
    return PyLong_FromLong(released);
}

/* --------------------------------------------------------- enumeration */

static PyObject *
Kernel_walk(KernelObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int error = 0;
    int64_t node, position, window;
    int64_t stack_ids[256];
    int64_t *stack = stack_ids;
    Py_ssize_t top = 0, stack_cap = 256;
    PyObject *out;

    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "walk expects (node, position)");
        return NULL;
    }
    node = k_as_int64(args[0], &error);
    position = k_as_int64(args[1], &error);
    if (error) {
        return NULL;
    }
    out = PyList_New(0);
    if (out == NULL) {
        return NULL;
    }
    window = self->window;
    if (node) {
        stack[top++] = node;
    }
    while (top) {
        int64_t current = stack[--top];
        KSlab *slab;
        int64_t *rec, meta, ref;
        PyObject *item = NULL;
        if (!current) {
            continue;
        }
        slab = k_slab_for(self, current);
        if (slab == NULL) {
            continue;
        }
        rec = slab->data + (current - slab->base) * K_STRIDE;
        if (position - rec[1] > window) {
            continue;
        }
        meta = rec[4];
        ref = meta >> 32;
        if (ref) {
            item = Py_BuildValue("(LLO)",
                                 (long long)((meta & K_META_LOW) >> 1),
                                 (long long)rec[0],
                                 PyList_GET_ITEM(slab->prods, ref - 1));
        }
        else if (position - rec[0] <= window) {
            item = Py_BuildValue("(LLO)",
                                 (long long)((meta & K_META_LOW) >> 1),
                                 (long long)rec[0], k_empty_tuple);
        }
        if (item == NULL && PyErr_Occurred()) {
            goto fail;
        }
        if (item != NULL) {
            if (PyList_Append(out, item) < 0) {
                Py_DECREF(item);
                goto fail;
            }
            Py_DECREF(item);
        }
        if (top + 2 > stack_cap) {
            Py_ssize_t grown_cap = stack_cap * 2;
            if (stack == stack_ids) {
                int64_t *heap = (int64_t *)PyMem_Malloc((size_t)grown_cap * sizeof(int64_t));
                if (heap == NULL) {
                    PyErr_NoMemory();
                    goto fail;
                }
                memcpy(heap, stack, (size_t)top * sizeof(int64_t));
                stack = heap;
            }
            else {
                int64_t *heap = (int64_t *)PyMem_Realloc(stack, (size_t)grown_cap * sizeof(int64_t));
                if (heap == NULL) {
                    PyErr_NoMemory();
                    goto fail;
                }
                stack = heap;
            }
            stack_cap = grown_cap;
        }
        if (rec[3]) {
            stack[top++] = rec[3];
        }
        if (rec[2]) {
            stack[top++] = rec[2];
        }
    }
    if (stack != stack_ids) {
        PyMem_Free(stack);
    }
    return out;
fail:
    if (stack != stack_ids) {
        PyMem_Free(stack);
    }
    Py_DECREF(out);
    return NULL;
}

/* ------------------------------------------------------- introspection */

static PyObject *
Kernel_slab_meta(KernelObject *self, PyObject *args)
{
    long long first_slot;
    KSlab *slab;
    if (!PyArg_ParseTuple(args, "L", &first_slot)) {
        return NULL;
    }
    slab = k_slab_at_slot(self, first_slot);
    if (slab == NULL) {
        PyErr_SetString(PyExc_ValueError, "no slab registered at that slot");
        return NULL;
    }
    return Py_BuildValue("(LL)", (long long)slab->count, (long long)slab->max_ms);
}

static PyObject *
Kernel_counters(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue("(LLLL)", (long long)self->nodes_created,
                         (long long)self->union_calls,
                         (long long)self->union_copies,
                         (long long)self->allocated);
}

static PyObject *
Kernel_set_counters(KernelObject *self, PyObject *args)
{
    long long nodes_created, union_calls, union_copies, allocated;
    if (!PyArg_ParseTuple(args, "LLLL", &nodes_created, &union_calls,
                          &union_copies, &allocated)) {
        return NULL;
    }
    self->nodes_created = nodes_created;
    self->union_calls = union_calls;
    self->union_copies = union_copies;
    self->allocated = allocated;
    Py_RETURN_NONE;
}

static PyObject *
Kernel_current_fill(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->cur == NULL) {
        return PyLong_FromLong(0);
    }
    return PyLong_FromLongLong(self->cur->count);
}

/* ---------------------------------------------------------- lifecycle */

static void
k_drop_all_slabs(KernelObject *self)
{
    Py_ssize_t rel;
    for (rel = 0; rel < self->used; rel++) {
        KSlab *slab = self->slots[rel];
        if (slab != NULL) {
            Py_ssize_t j;
            for (j = rel; j < self->used; j++) {
                if (self->slots[j] == slab) {
                    self->slots[j] = NULL;
                }
            }
            k_free_slab(slab);
        }
    }
    self->used = 0;
    self->cur = NULL;
}

static PyObject *
Kernel_close(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    k_drop_all_slabs(self);
    Py_CLEAR(self->request_slab);
    Py_RETURN_NONE;
}

static int
Kernel_traverse(KernelObject *self, visitproc visit, void *arg)
{
    Py_ssize_t rel;
    Py_VISIT(self->request_slab);
    for (rel = 0; rel < self->used; rel++) {
        KSlab *slab = self->slots[rel];
        if (slab != NULL && (rel == 0 || self->slots[rel - 1] != slab)) {
            Py_VISIT(slab->prods);
            Py_VISIT(slab->view.obj);
        }
    }
    return 0;
}

static int
Kernel_clear(KernelObject *self)
{
    k_drop_all_slabs(self);
    Py_CLEAR(self->request_slab);
    return 0;
}

static void
Kernel_dealloc(KernelObject *self)
{
    PyObject_GC_UnTrack(self);
    k_drop_all_slabs(self);
    Py_CLEAR(self->request_slab);
    PyMem_Free(self->slots);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Kernel_init(KernelObject *self, PyObject *args, PyObject *kwargs)
{
    long long window;
    static char *keywords[] = {"window", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "L", keywords, &window)) {
        return -1;
    }
    self->window = window;
    self->floor = 0;
    self->seal_deadline = ((int64_t)1) << 62;
    return 0;
}

static PyMethodDef Kernel_methods[] = {
    {"register_slab", (PyCFunction)Kernel_register_slab, METH_VARARGS,
     "register_slab(first_slot, span, base, array, prods, count, max_ms)"},
    {"set_current", (PyCFunction)Kernel_set_current, METH_VARARGS,
     "set_current(first_slot, seal_deadline)"},
    {"set_request_slab", (PyCFunction)Kernel_set_request_slab, METH_O,
     "set_request_slab(callable) — invoked with the position when the current slab fills"},
    {"write_sentinel", (PyCFunction)Kernel_write_sentinel, METH_NOARGS,
     "write the bottom-node sentinel record into the current slab"},
    {"extend", (PyCFunction)Kernel_extend, METH_FASTCALL,
     "extend(position, max_start, label_id, children) -> node id"},
    {"union", (PyCFunction)Kernel_union, METH_FASTCALL,
     "union(left, fresh, position, fresh_ms) -> node id"},
    {"extend_onto", (PyCFunction)Kernel_extend_onto, METH_FASTCALL,
     "extend_onto(position, entry, label_id, k) -> the node id"},
    {"release_scan", (PyCFunction)Kernel_release_scan, METH_VARARGS,
     "release_scan(cursor_slot, position) -> slabs released"},
    {"walk", (PyCFunction)Kernel_walk, METH_FASTCALL,
     "walk(node, position) -> [(label_id, position, children), ...]"},
    {"slab_meta", (PyCFunction)Kernel_slab_meta, METH_VARARGS,
     "slab_meta(first_slot) -> (count, max_ms)"},
    {"counters", (PyCFunction)Kernel_counters, METH_NOARGS,
     "counters() -> (nodes_created, union_calls, union_copies, allocated)"},
    {"set_counters", (PyCFunction)Kernel_set_counters, METH_VARARGS,
     "set_counters(nodes_created, union_calls, union_copies, allocated)"},
    {"current_fill", (PyCFunction)Kernel_current_fill, METH_NOARGS,
     "current_fill() -> records in the current slab"},
    {"close", (PyCFunction)Kernel_close, METH_NOARGS,
     "release every buffer and detach from the arena"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core._kernel.Kernel",
    .tp_basicsize = sizeof(KernelObject),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native stride-5 record kernel over one arena's slab buffers.",
    .tp_traverse = (traverseproc)Kernel_traverse,
    .tp_clear = (inquiry)Kernel_clear,
    .tp_methods = Kernel_methods,
    .tp_init = (initproc)Kernel_init,
    .tp_new = PyType_GenericNew,
};

static struct PyModuleDef kernelmodule = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.core._kernel",
    .m_doc = "Native kernel backend for the columnar arena hot path.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *module;
    if (PyType_Ready(&KernelType) < 0) {
        return NULL;
    }
    k_empty_tuple = PyTuple_New(0);
    if (k_empty_tuple == NULL) {
        return NULL;
    }
    module = PyModule_Create(&kernelmodule);
    if (module == NULL) {
        return NULL;
    }
    Py_INCREF(&KernelType);
    if (PyModule_AddObject(module, "Kernel", (PyObject *)&KernelType) < 0) {
        Py_DECREF(&KernelType);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddIntConstant(module, "STRIDE", K_STRIDE) < 0 ||
        PyModule_AddIntConstant(module, "SLOT_BITS", K_SLOT_BITS) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
