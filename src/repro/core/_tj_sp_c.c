/* Compiled kernel for the flat-array TJ-SP core.
 *
 * This is the optional compiled backend of `repro.core.tj_sp_flat`: the
 * same struct-of-arrays representation as the pure-Python `FlatTreePy`
 * kernel — parallel int32 buffers `parent` / `edge` / `depth` /
 * `children` / `last_ok` indexed by a dense stable id, grown by
 * doubling, 20 bytes a vertex — with `Less` as C-level index chasing and
 * `permits_many` as one C loop per batch (no batch-verdict cache: the
 * loop costs no more than a lookup would).  Every id, depth and sibling
 * index is below the vertex count, which FLAT_MAX_VERTICES caps so they
 * all fit int32.  It is built on demand by `repro.core._cbuild` with
 * whatever C compiler the host has; when none is available the
 * pure-Python kernel serves the identical semantics (the differential
 * suite in tests/core/test_flat_tj_sp.py proves verdict equality).
 *
 * Thread-safety: none of the functions below release the GIL, so every
 * call is atomic with respect to other Python threads.  That is
 * strictly stronger than the Section 5.1 contract needs (concurrent
 * `add_child` calls never share a parent; `permits` may race with
 * `add_child` but only ever names already-published ids).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* FlatTree: the struct-of-arrays spawn-path forest                    */
/* ------------------------------------------------------------------ */

/* Ids are int32 row indices, so the forest holds at most this many. */
#define FLAT_MAX_VERTICES INT32_MAX

typedef struct {
    PyObject_HEAD
    int32_t *parent;
    int32_t *edge;
    int32_t *depth;
    int32_t *children;
    int32_t *last_ok;
    Py_ssize_t n;
    Py_ssize_t cap;
    Py_ssize_t batch_calls; /* permits_many calls, for cache_stats() */
} FlatTree;

static int
flattree_grow(FlatTree *self, Py_ssize_t need)
{
    Py_ssize_t cap;
    if (need <= self->cap)
        return 0;
    cap = self->cap > 0 ? self->cap : 8;
    while (cap < need)
        cap *= 2;
#define GROW(field)                                                        \
    do {                                                                   \
        int32_t *buf = PyMem_Realloc(self->field,                          \
                                     (size_t)cap * sizeof(int32_t));       \
        if (buf == NULL) {                                                 \
            PyErr_NoMemory();                                              \
            return -1;                                                     \
        }                                                                  \
        self->field = buf;                                                 \
    } while (0)
    GROW(parent);
    GROW(edge);
    GROW(depth);
    GROW(children);
    GROW(last_ok);
#undef GROW
    self->cap = cap;
    return 0;
}

static PyObject *
flattree_new(PyTypeObject *type, PyObject *Py_UNUSED(args),
             PyObject *Py_UNUSED(kwds))
{
    FlatTree *self = (FlatTree *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->parent = self->edge = self->depth = self->children = self->last_ok = NULL;
    self->n = 0;
    self->cap = 0;
    self->batch_calls = 0;
    return (PyObject *)self;
}

static void
flattree_dealloc(FlatTree *self)
{
    PyMem_Free(self->parent);
    PyMem_Free(self->edge);
    PyMem_Free(self->depth);
    PyMem_Free(self->children);
    PyMem_Free(self->last_ok);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Every id from Python passes here before it is narrowed to int32:
 * 0 <= id < n <= FLAT_MAX_VERTICES, so the cast cannot truncate. */
static int
flattree_check_id(FlatTree *self, Py_ssize_t id, const char *what)
{
    if (id < 0 || id >= self->n) {
        PyErr_Format(PyExc_ValueError, "unknown %s id %zd", what, id);
        return -1;
    }
    return 0;
}

static PyObject *
flattree_add_child(FlatTree *self, PyObject *arg)
{
    Py_ssize_t p = PyNumber_AsSsize_t(arg, PyExc_OverflowError);
    Py_ssize_t id;
    if (p == -1 && PyErr_Occurred())
        return NULL;
    if (p < -1 || p >= self->n) {
        PyErr_Format(PyExc_ValueError, "unknown parent id %zd", p);
        return NULL;
    }
    if (self->n >= FLAT_MAX_VERTICES) {
        PyErr_Format(PyExc_OverflowError,
                     "flat TJ-SP forest is full (%d vertices)", FLAT_MAX_VERTICES);
        return NULL;
    }
    if (flattree_grow(self, self->n + 1) < 0)
        return NULL;
    id = self->n;
    if (p < 0) {
        self->parent[id] = -1;
        self->edge[id] = 0;
        self->depth[id] = 0;
    }
    else {
        self->parent[id] = (int32_t)p;
        self->edge[id] = self->children[p]++;
        self->depth[id] = self->depth[p] + 1;
    }
    self->children[id] = 0;
    self->last_ok[id] = -1;
    self->n = id + 1;
    return PyLong_FromSsize_t(id);
}

/* The Algorithm 3 ``Less`` on flat buffers: lift the deeper side to a
 * common depth remembering the last edge taken, climb in lockstep to
 * the LCA, and compare the dangling edges (later sibling is smaller;
 * only a proper ancestor is less). */
static int
flat_less(const FlatTree *t, int32_t a, int32_t b)
{
    const int32_t *parent = t->parent;
    const int32_t *edge = t->edge;
    int32_t e1 = -1, e2 = -1;
    int32_t d1, d2;
    if (a == b)
        return 0;
    d1 = t->depth[a];
    d2 = t->depth[b];
    while (d2 > d1) {
        e2 = edge[b];
        b = parent[b];
        d2--;
    }
    while (d1 > d2) {
        e1 = edge[a];
        a = parent[a];
        d1--;
    }
    while (a != b) {
        e1 = edge[a];
        e2 = edge[b];
        a = parent[a];
        b = parent[b];
    }
    if (e1 < 0)
        return e2 >= 0; /* anc+: a proper ancestor is permitted  */
    if (e2 < 0)
        return 0; /* dec*: a descendant never is */
    return e1 > e2;
}

/* permits(a, b) with the monotone last-ok fast path (verdicts are
 * fixed at fork time, so a permitted pair stays permitted forever). */
static int
flat_permits(FlatTree *self, int32_t a, int32_t b)
{
    int v;
    if (self->last_ok[a] == b)
        return 1;
    v = flat_less(self, a, b);
    if (v)
        self->last_ok[a] = b;
    return v;
}

static PyObject *
flattree_permits(FlatTree *self, PyObject *args)
{
    Py_ssize_t a, b;
    if (!PyArg_ParseTuple(args, "nn:permits", &a, &b))
        return NULL;
    if (flattree_check_id(self, a, "joiner") < 0 ||
        flattree_check_id(self, b, "joinee") < 0)
        return NULL;
    return PyBool_FromLong(flat_permits(self, (int32_t)a, (int32_t)b));
}

static PyObject *
flattree_permits_many(FlatTree *self, PyObject *args)
{
    Py_ssize_t a, n, i;
    PyObject *joinees, *fast, *out;
    if (!PyArg_ParseTuple(args, "nO:permits_many", &a, &joinees))
        return NULL;
    self->batch_calls++;
    if (flattree_check_id(self, a, "joiner") < 0)
        return NULL;
    fast = PySequence_Fast(joinees, "joinees must be a sequence of ids");
    if (fast == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(fast);
    out = PyList_New(n);
    if (out == NULL) {
        Py_DECREF(fast);
        return NULL;
    }
    for (i = 0; i < n; i++) {
        Py_ssize_t b = PyNumber_AsSsize_t(PySequence_Fast_GET_ITEM(fast, i),
                                          PyExc_OverflowError);
        PyObject *v;
        if (b == -1 && PyErr_Occurred())
            goto fail;
        if (flattree_check_id(self, b, "joinee") < 0)
            goto fail;
        v = flat_permits(self, (int32_t)a, (int32_t)b) ? Py_True : Py_False;
        Py_INCREF(v);
        PyList_SET_ITEM(out, i, v);
    }
    Py_DECREF(fast);
    return out;
fail:
    Py_DECREF(fast);
    Py_DECREF(out);
    return NULL;
}

static PyObject *
flattree_depth_of(FlatTree *self, PyObject *arg)
{
    Py_ssize_t id = PyNumber_AsSsize_t(arg, PyExc_OverflowError);
    if (id == -1 && PyErr_Occurred())
        return NULL;
    if (flattree_check_id(self, id, "vertex") < 0)
        return NULL;
    return PyLong_FromLongLong(self->depth[id]);
}

/* The spawn path of *id* as the legacy tuple of edge labels (debugging
 * and differential tests; never on the hot path). */
static PyObject *
flattree_path_of(FlatTree *self, PyObject *arg)
{
    Py_ssize_t id = PyNumber_AsSsize_t(arg, PyExc_OverflowError);
    int32_t node, d;
    PyObject *out;
    if (id == -1 && PyErr_Occurred())
        return NULL;
    if (flattree_check_id(self, id, "vertex") < 0)
        return NULL;
    d = self->depth[id];
    out = PyTuple_New(d);
    if (out == NULL)
        return NULL;
    node = (int32_t)id;
    while (d > 0) {
        PyObject *e = PyLong_FromLongLong(self->edge[node]);
        if (e == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, d - 1, e);
        node = self->parent[node];
        d--;
    }
    return out;
}

static PyObject *
flattree_len(FlatTree *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(self->n);
}

/* The batch cache this kernel does not keep, reported as one of
 * capacity zero: no entry is held and every batch call is a miss that
 * is evicted at once, so a hit ratio derived from these counts is 0. */
static PyObject *
flattree_cache_stats(FlatTree *self, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue("{s:i,s:n}", "batch_entries", 0,
                         "evictions", self->batch_calls);
}

static PyMethodDef flattree_methods[] = {
    {"add_child", (PyCFunction)flattree_add_child, METH_O,
     "add_child(parent_id) -> id   (parent_id < 0 creates a root)"},
    {"permits", (PyCFunction)flattree_permits, METH_VARARGS,
     "permits(joiner_id, joinee_id) -> bool"},
    {"permits_many", (PyCFunction)flattree_permits_many, METH_VARARGS,
     "permits_many(joiner_id, joinee_ids) -> list[bool]"},
    {"depth_of", (PyCFunction)flattree_depth_of, METH_O,
     "depth_of(id) -> int"},
    {"path_of", (PyCFunction)flattree_path_of, METH_O,
     "path_of(id) -> tuple  (the legacy spawn-path tuple)"},
    {"cache_stats", (PyCFunction)flattree_cache_stats, METH_NOARGS,
     "cache_stats() -> {'batch_entries': 0, 'evictions': batch calls}"},
    {"__len__", (PyCFunction)flattree_len, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static Py_ssize_t
flattree_length(FlatTree *self)
{
    return self->n;
}

static PySequenceMethods flattree_as_sequence = {
    .sq_length = (lenfunc)flattree_length,
};

static PyTypeObject FlatTreeType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_tj_sp_c.FlatTree",
    .tp_basicsize = sizeof(FlatTree),
    .tp_dealloc = (destructor)flattree_dealloc,
    .tp_as_sequence = &flattree_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Struct-of-arrays TJ-SP spawn-path forest (compiled kernel)",
    .tp_methods = flattree_methods,
    .tp_new = flattree_new,
};

static struct PyModuleDef tj_sp_c_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_tj_sp_c",
    .m_doc = "Compiled flat-array TJ-SP kernel",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__tj_sp_c(void)
{
    PyObject *m;
    if (PyType_Ready(&FlatTreeType) < 0)
        return NULL;
    m = PyModule_Create(&tj_sp_c_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&FlatTreeType);
    if (PyModule_AddObject(m, "FlatTree", (PyObject *)&FlatTreeType) < 0) {
        Py_DECREF(&FlatTreeType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
