/* Compiled kernel for the flat-array TJ-SP core.
 *
 * This is the optional compiled backend of `repro.core.tj_sp_flat`: the
 * same representation as the pure-Python `FlatTreePy` kernel — one int32
 * `parent` column indexed by a dense id, grown by doubling, 4 bytes a
 * vertex.  A vertex's id is its creation rank, so an ancestor's id is
 * below every descendant's and siblings compare by id in fork order:
 * `Less` climbs the larger of the two ids until they meet and needs no
 * depth, sibling index or fork counter.  `permits_many` is one C loop
 * per batch (no batch-verdict cache: the loop costs no more than a
 * lookup would).  Every id is below the vertex count, which
 * FLAT_MAX_VERTICES caps so it fits int32.  It is built on demand by
 * `repro.core._cbuild` with whatever C compiler the host has; when none
 * is available the pure-Python kernel serves the identical semantics
 * (the differential suite in tests/core/test_flat_tj_sp.py proves
 * verdict equality).
 *
 * Thread-safety: none of the functions below release the GIL, so every
 * call is atomic with respect to other Python threads, and ids are
 * handed out in creation order whichever thread forks.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* ------------------------------------------------------------------ */
/* FlatTree: the spawn-path forest as one parent column               */
/* ------------------------------------------------------------------ */

/* Ids are int32 row indices, so the forest holds at most this many. */
#define FLAT_MAX_VERTICES INT32_MAX

typedef struct {
    PyObject_HEAD
    int32_t *parent;
    Py_ssize_t n;
    Py_ssize_t cap;
    Py_ssize_t batch_calls; /* permits_many calls, for cache_stats() */
} FlatTree;

static int
flattree_grow(FlatTree *self, Py_ssize_t need)
{
    Py_ssize_t cap;
    int32_t *buf;
    if (need <= self->cap)
        return 0;
    cap = self->cap > 0 ? self->cap : 8;
    while (cap < need)
        cap *= 2;
    buf = PyMem_Realloc(self->parent, (size_t)cap * sizeof(int32_t));
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->parent = buf;
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
    self->parent = NULL;
    self->n = 0;
    self->cap = 0;
    self->batch_calls = 0;
    return (PyObject *)self;
}

static void
flattree_dealloc(FlatTree *self)
{
    PyMem_Free(self->parent);
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

/* An id argument from Python, range-checked; -1 with an exception set
 * when it is not an id of this forest. */
static Py_ssize_t
flattree_arg_id(FlatTree *self, PyObject *arg, const char *what)
{
    Py_ssize_t id = PyNumber_AsSsize_t(arg, PyExc_OverflowError);
    if (id == -1 && PyErr_Occurred())
        return -1;
    if (flattree_check_id(self, id, what) < 0)
        return -1;
    return id;
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
    self->parent[id] = (int32_t)p;
    self->n = id + 1;
    return PyLong_FromSsize_t(id);
}

/* The Algorithm 3 ``Less`` on the parent column.  Ids are creation
 * ranks, so the larger of two distinct ids is never an ancestor of the
 * other: climbing it keeps the LCA in reach.  The climb remembers the
 * last vertex it left on each side; at the meeting point those are the
 * two children of the LCA (or -1 for a side that is the LCA itself),
 * exactly Algorithm 3's dangling edges, and siblings compare by id. */
static int
flat_less(const FlatTree *t, int32_t a, int32_t b)
{
    const int32_t *parent = t->parent;
    int32_t la = -1, lb = -1;
    if (a == b)
        return 0;
    while (a != b) {
        if (a > b) {
            la = a;
            a = parent[a];
        }
        else {
            lb = b;
            b = parent[b];
        }
    }
    if (a < 0)
        return 0; /* past both roots: different trees */
    if (la < 0)
        return 1; /* anc+: the joinee is a proper descendant */
    if (lb < 0)
        return 0; /* dec*: the joinee is an ancestor */
    return la > lb; /* sib: the later sibling is smaller */
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
    return PyBool_FromLong(flat_less(self, (int32_t)a, (int32_t)b));
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
        Py_ssize_t b = flattree_arg_id(self, PySequence_Fast_GET_ITEM(fast, i),
                                       "joinee");
        PyObject *v;
        if (b < 0) {
            Py_DECREF(fast);
            Py_DECREF(out);
            return NULL;
        }
        v = flat_less(self, (int32_t)a, (int32_t)b) ? Py_True : Py_False;
        Py_INCREF(v);
        PyList_SET_ITEM(out, i, v);
    }
    Py_DECREF(fast);
    return out;
}

/* How many siblings were forked before *id*: its Algorithm 3 edge
 * label.  Siblings sit between their parent's id and their own. */
static int32_t
flat_edge(const FlatTree *t, int32_t id)
{
    int32_t p = t->parent[id], k, e = 0;
    for (k = p + 1; k < id; k++)
        e += t->parent[k] == p;
    return e;
}

static Py_ssize_t
flat_depth(const FlatTree *t, int32_t id)
{
    Py_ssize_t d = 0;
    while ((id = t->parent[id]) >= 0)
        d++;
    return d;
}

static PyObject *
flattree_depth_of(FlatTree *self, PyObject *arg)
{
    Py_ssize_t id = flattree_arg_id(self, arg, "vertex");
    if (id < 0)
        return NULL;
    return PyLong_FromSsize_t(flat_depth(self, (int32_t)id));
}

/* The spawn path of *id* as the legacy tuple of edge labels (debugging
 * and differential tests; never on the hot path). */
static PyObject *
flattree_path_of(FlatTree *self, PyObject *arg)
{
    Py_ssize_t id = flattree_arg_id(self, arg, "vertex");
    Py_ssize_t d;
    int32_t node;
    PyObject *out;
    if (id < 0)
        return NULL;
    node = (int32_t)id;
    d = flat_depth(self, node);
    out = PyTuple_New(d);
    if (out == NULL)
        return NULL;
    while (d > 0) {
        PyObject *e = PyLong_FromLong(flat_edge(self, node));
        if (e == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, --d, e);
        node = self->parent[node];
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
     "add_child(parent_id) -> id   (parent_id -1 creates a root)"},
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
    .tp_doc = "TJ-SP spawn-path forest as one parent column (compiled kernel)",
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
