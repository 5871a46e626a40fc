/* Compiled core for repro.sim: FastLane deque, Event type, batched run loop.
 *
 * Selected via REPRO_SIM_CORE=compiled (see repro/sim/_core.py); the pure
 * Python kernel stays the reference implementation and the differential
 * test suite runs programs against both.  The semantics here mirror
 * repro/sim/kernel.py run() and repro/sim/events.py Event exactly —
 * including dispatch order, meter accounting, and exception behaviour —
 * so golden traces stay byte-identical across cores.
 *
 * Built without pip via tools/build_core.py (gcc + sysconfig paths).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <time.h>

/* Bound from Python after the pure modules define them (avoids an import
 * cycle): events._PENDING, events.EventAlreadyTriggered,
 * kernel.SimulationError. */
static PyObject *g_pending = NULL;
static PyObject *g_already_triggered = NULL;
static PyObject *g_simulation_error = NULL;

/* Interned attribute names. */
static PyObject *s_fast = NULL;          /* "_fast" */
static PyObject *s_heap = NULL;          /* "_heap" */
static PyObject *s_pool = NULL;          /* "_entry_pool" */
static PyObject *s_now = NULL;           /* "_now" */
static PyObject *s_meter = NULL;         /* "meter" */
static PyObject *s_enabled = NULL;       /* "enabled" */
static PyObject *s_append = NULL;        /* "append" */
static PyObject *s_callbacks = NULL;     /* "callbacks" */
static PyObject *s_run_callbacks = NULL; /* "_run_callbacks" */
static PyObject *s_ok = NULL;            /* "_ok" */
static PyObject *s_value = NULL;         /* "_value" */
static PyObject *s_fast_lane_hits = NULL;
static PyObject *s_heap_hits = NULL;
static PyObject *s_batched_events = NULL;
static PyObject *s_kernel_flush = NULL;  /* "kernel_flush_wall_s" */

static double
monotonic_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* ====================================================================== */
/* FastLane: a ring-buffer FIFO of PyObject* (deque replacement).          */
/* ====================================================================== */

typedef struct {
    PyObject_HEAD
    PyObject **items;
    Py_ssize_t capacity; /* power of two */
    Py_ssize_t head;
    Py_ssize_t count;
} FastLane;

static PyTypeObject FastLane_Type;

#define FASTLANE_INITIAL_CAPACITY 64

static int
fastlane_grow(FastLane *self)
{
    Py_ssize_t new_capacity = self->capacity * 2;
    PyObject **fresh = PyMem_New(PyObject *, new_capacity);
    if (fresh == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t mask = self->capacity - 1;
    for (Py_ssize_t i = 0; i < self->count; i++) {
        fresh[i] = self->items[(self->head + i) & mask];
    }
    PyMem_Free(self->items);
    self->items = fresh;
    self->capacity = new_capacity;
    self->head = 0;
    return 0;
}

static int
fastlane_append_internal(FastLane *self, PyObject *item)
{
    if (self->count == self->capacity && fastlane_grow(self) < 0) {
        return -1;
    }
    Py_INCREF(item);
    self->items[(self->head + self->count) & (self->capacity - 1)] = item;
    self->count++;
    return 0;
}

/* Returns a new reference, or NULL (no exception set) when empty. */
static PyObject *
fastlane_popleft_internal(FastLane *self)
{
    if (self->count == 0) {
        return NULL;
    }
    PyObject *item = self->items[self->head];
    self->items[self->head] = NULL;
    self->head = (self->head + 1) & (self->capacity - 1);
    self->count--;
    return item;
}

static PyObject *
fastlane_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    FastLane *self = (FastLane *)type->tp_alloc(type, 0);
    if (self == NULL) {
        return NULL;
    }
    self->items = PyMem_New(PyObject *, FASTLANE_INITIAL_CAPACITY);
    if (self->items == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    self->capacity = FASTLANE_INITIAL_CAPACITY;
    self->head = 0;
    self->count = 0;
    return (PyObject *)self;
}

static int
fastlane_traverse(FastLane *self, visitproc visit, void *arg)
{
    Py_ssize_t mask = self->capacity - 1;
    for (Py_ssize_t i = 0; i < self->count; i++) {
        Py_VISIT(self->items[(self->head + i) & mask]);
    }
    return 0;
}

static int
fastlane_clear_slot(FastLane *self)
{
    Py_ssize_t mask = self->capacity - 1;
    for (Py_ssize_t i = 0; i < self->count; i++) {
        Py_CLEAR(self->items[(self->head + i) & mask]);
    }
    self->count = 0;
    self->head = 0;
    return 0;
}

static void
fastlane_dealloc(FastLane *self)
{
    PyObject_GC_UnTrack(self);
    fastlane_clear_slot(self);
    PyMem_Free(self->items);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
fastlane_append(FastLane *self, PyObject *item)
{
    if (fastlane_append_internal(self, item) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
fastlane_popleft(FastLane *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *item = fastlane_popleft_internal(self);
    if (item == NULL) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty FastLane");
        return NULL;
    }
    return item;
}

static Py_ssize_t
fastlane_length(FastLane *self)
{
    return self->count;
}

static PyMethodDef fastlane_methods[] = {
    {"append", (PyCFunction)fastlane_append, METH_O,
     "Append one item to the tail."},
    {"popleft", (PyCFunction)fastlane_popleft, METH_NOARGS,
     "Pop and return the head item."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods fastlane_as_sequence = {
    .sq_length = (lenfunc)fastlane_length,
};

static PyTypeObject FastLane_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.FastLane",
    .tp_basicsize = sizeof(FastLane),
    .tp_dealloc = (destructor)fastlane_dealloc,
    .tp_as_sequence = &fastlane_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Ring-buffer FIFO for the kernel's immediate fast lane.",
    .tp_traverse = (traverseproc)fastlane_traverse,
    .tp_clear = (inquiry)fastlane_clear_slot,
    .tp_methods = fastlane_methods,
    .tp_new = fastlane_new,
};

/* ====================================================================== */
/* Event: the compiled one-shot occurrence (base-class compatible).        */
/* ====================================================================== */

typedef struct {
    PyObject_HEAD
    PyObject *sim;
    PyObject *callbacks;   /* list while pending/triggered, None once run */
    PyObject *e_value;     /* _PENDING sentinel until triggered */
    PyObject *e_ok;        /* Py_True / Py_False */
    PyObject *e_scheduled; /* Py_True / Py_False */
} CEvent;

static PyTypeObject Event_Type;

static int
event_init(CEvent *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"sim", NULL};
    PyObject *sim;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &sim)) {
        return -1;
    }
    if (g_pending == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_ckernel is not bound; import repro.sim.events first");
        return -1;
    }
    PyObject *callbacks = PyList_New(0);
    if (callbacks == NULL) {
        return -1;
    }
    Py_INCREF(sim);
    Py_XSETREF(self->sim, sim);
    Py_XSETREF(self->callbacks, callbacks);
    Py_INCREF(g_pending);
    Py_XSETREF(self->e_value, g_pending);
    Py_INCREF(Py_True);
    Py_XSETREF(self->e_ok, Py_True);
    Py_INCREF(Py_False);
    Py_XSETREF(self->e_scheduled, Py_False);
    return 0;
}

static int
event_traverse(CEvent *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->callbacks);
    Py_VISIT(self->e_value);
    Py_VISIT(self->e_ok);
    Py_VISIT(self->e_scheduled);
    return 0;
}

static int
event_clear(CEvent *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->e_value);
    Py_CLEAR(self->e_ok);
    Py_CLEAR(self->e_scheduled);
    return 0;
}

static void
event_dealloc(CEvent *self)
{
    PyObject_GC_UnTrack(self);
    event_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
event_repr(CEvent *self)
{
    const char *state = "pending";
    if (self->e_value != g_pending) {
        state = (self->e_ok == Py_True) ? "ok" : "failed";
    }
    return PyUnicode_FromFormat("<%s %s at %p>",
                                Py_TYPE(self)->tp_name, state, (void *)self);
}

static int
event_raise_already_triggered(CEvent *self)
{
    PyObject *repr = PyObject_Repr((PyObject *)self);
    if (repr == NULL) {
        return -1;
    }
    PyErr_Format(g_already_triggered, "%U has already been triggered", repr);
    Py_DECREF(repr);
    return -1;
}

/* sim._fast.append(self), with a direct path for FastLane. */
static int
event_enqueue_fast(CEvent *self)
{
    PyObject *fast = PyObject_GetAttr(self->sim, s_fast);
    if (fast == NULL) {
        return -1;
    }
    int status;
    if (Py_TYPE(fast) == &FastLane_Type) {
        status = fastlane_append_internal((FastLane *)fast, (PyObject *)self);
    }
    else {
        PyObject *res =
            PyObject_CallMethodOneArg(fast, s_append, (PyObject *)self);
        status = (res == NULL) ? -1 : 0;
        Py_XDECREF(res);
    }
    Py_DECREF(fast);
    return status;
}

static PyObject *
event_succeed(CEvent *self, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    PyObject *value = Py_None;
    Py_ssize_t total = nargs + (kwnames ? PyTuple_GET_SIZE(kwnames) : 0);
    if (total > 1) {
        PyErr_SetString(PyExc_TypeError,
                        "succeed() takes at most one argument");
        return NULL;
    }
    if (nargs == 1) {
        value = args[0];
    }
    else if (kwnames && PyTuple_GET_SIZE(kwnames) == 1) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, 0);
        if (PyUnicode_CompareWithASCIIString(name, "value") != 0) {
            PyErr_Format(PyExc_TypeError,
                         "succeed() got an unexpected keyword argument %R",
                         name);
            return NULL;
        }
        value = args[0];
    }
    if (self->e_value != g_pending) {
        event_raise_already_triggered(self);
        return NULL;
    }
    Py_INCREF(value);
    Py_XSETREF(self->e_value, value);
    if (event_enqueue_fast(self) < 0) {
        return NULL;
    }
    Py_INCREF(self);
    return (PyObject *)self;
}

static PyObject *
event_fail(CEvent *self, PyObject *const *args, Py_ssize_t nargs,
           PyObject *kwnames)
{
    PyObject *exception = NULL;
    Py_ssize_t total = nargs + (kwnames ? PyTuple_GET_SIZE(kwnames) : 0);
    if (total != 1) {
        PyErr_SetString(PyExc_TypeError, "fail() takes exactly one argument");
        return NULL;
    }
    if (nargs == 1) {
        exception = args[0];
    }
    else {
        PyObject *name = PyTuple_GET_ITEM(kwnames, 0);
        if (PyUnicode_CompareWithASCIIString(name, "exception") != 0) {
            PyErr_Format(PyExc_TypeError,
                         "fail() got an unexpected keyword argument %R", name);
            return NULL;
        }
        exception = args[0];
    }
    if (!PyExceptionInstance_Check(exception)) {
        PyErr_SetString(PyExc_TypeError,
                        "fail() requires an exception instance");
        return NULL;
    }
    if (self->e_value != g_pending) {
        event_raise_already_triggered(self);
        return NULL;
    }
    Py_INCREF(Py_False);
    Py_XSETREF(self->e_ok, Py_False);
    Py_INCREF(exception);
    Py_XSETREF(self->e_value, exception);
    if (event_enqueue_fast(self) < 0) {
        return NULL;
    }
    Py_INCREF(self);
    return (PyObject *)self;
}

static PyObject *
event_trigger(CEvent *self, PyObject *args)
{
    int ok;
    PyObject *value;
    if (!PyArg_ParseTuple(args, "pO:_trigger", &ok, &value)) {
        return NULL;
    }
    if (self->e_value != g_pending) {
        event_raise_already_triggered(self);
        return NULL;
    }
    PyObject *flag = ok ? Py_True : Py_False;
    Py_INCREF(flag);
    Py_XSETREF(self->e_ok, flag);
    Py_INCREF(value);
    Py_XSETREF(self->e_value, value);
    Py_RETURN_NONE;
}

/* Shared dispatch: detach the callback list and invoke each entry.  Used
 * by both the exposed method and the run loop's inline fast path. */
static int
event_dispatch_inline(CEvent *self)
{
    PyObject *callbacks = self->callbacks;
    if (callbacks == NULL || !PyList_CheckExact(callbacks)) {
        PyErr_Format(PyExc_TypeError,
                     "%R is not iterable (event already processed?)",
                     callbacks == NULL ? Py_None : callbacks);
        return -1;
    }
    Py_INCREF(callbacks);
    Py_INCREF(Py_None);
    Py_SETREF(self->callbacks, Py_None);
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(callbacks); i++) {
        PyObject *callback = PyList_GET_ITEM(callbacks, i);
        Py_INCREF(callback);
        PyObject *res = PyObject_CallOneArg(callback, (PyObject *)self);
        Py_DECREF(callback);
        if (res == NULL) {
            Py_DECREF(callbacks);
            return -1;
        }
        Py_DECREF(res);
    }
    Py_DECREF(callbacks);
    return 0;
}

static PyObject *
event_run_callbacks(CEvent *self, PyObject *Py_UNUSED(ignored))
{
    if (event_dispatch_inline(self) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
event_get_triggered(CEvent *self, void *closure)
{
    return PyBool_FromLong(self->e_value != g_pending);
}

static PyObject *
event_get_processed(CEvent *self, void *closure)
{
    return PyBool_FromLong(self->callbacks == Py_None);
}

static PyObject *
event_get_ok(CEvent *self, void *closure)
{
    PyObject *ok = self->e_ok ? self->e_ok : Py_True;
    Py_INCREF(ok);
    return ok;
}

static PyObject *
event_get_value(CEvent *self, void *closure)
{
    if (self->e_value == g_pending || self->e_value == NULL) {
        PyErr_SetString(PyExc_AttributeError,
                        "event value is not yet available");
        return NULL;
    }
    Py_INCREF(self->e_value);
    return self->e_value;
}

static PyMemberDef event_members[] = {
    {"sim", T_OBJECT, offsetof(CEvent, sim), 0, "Owning simulator."},
    {"callbacks", T_OBJECT, offsetof(CEvent, callbacks), 0,
     "Callback list; None once processed."},
    {"_value", T_OBJECT, offsetof(CEvent, e_value), 0, NULL},
    {"_ok", T_OBJECT, offsetof(CEvent, e_ok), 0, NULL},
    {"_scheduled", T_OBJECT, offsetof(CEvent, e_scheduled), 0, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef event_getset[] = {
    {"triggered", (getter)event_get_triggered, NULL,
     "True once succeed/fail has been called.", NULL},
    {"processed", (getter)event_get_processed, NULL,
     "True once the kernel has run this event's callbacks.", NULL},
    {"ok", (getter)event_get_ok, NULL,
     "True when the event succeeded (meaningful once triggered).", NULL},
    {"value", (getter)event_get_value, NULL,
     "The success value or failure exception.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMethodDef event_methods[] = {
    {"succeed", (PyCFunction)(void (*)(void))event_succeed,
     METH_FASTCALL | METH_KEYWORDS,
     "Trigger the event successfully, delivering ``value`` to waiters."},
    {"fail", (PyCFunction)(void (*)(void))event_fail,
     METH_FASTCALL | METH_KEYWORDS,
     "Trigger the event as failed; waiters see the exception raised."},
    {"_trigger", (PyCFunction)event_trigger, METH_VARARGS,
     "Record the one-shot outcome without enqueueing."},
    {"_run_callbacks", (PyCFunction)event_run_callbacks, METH_NOARGS,
     "Detach and invoke the callback list."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject Event_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Event",
    .tp_basicsize = sizeof(CEvent),
    .tp_dealloc = (destructor)event_dealloc,
    .tp_repr = (reprfunc)event_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled one-shot occurrence on the simulation timeline.",
    .tp_traverse = (traverseproc)event_traverse,
    .tp_clear = (inquiry)event_clear,
    .tp_methods = event_methods,
    .tp_members = event_members,
    .tp_getset = event_getset,
    .tp_init = (initproc)event_init,
    .tp_new = PyType_GenericNew,
};

/* ====================================================================== */
/* Heap helpers: binary heap of [when, seq, event] Python lists.           */
/* ====================================================================== */

static double
entry_when(PyObject *entry)
{
    PyObject *when = PyList_GET_ITEM(entry, 0);
    if (PyFloat_CheckExact(when)) {
        return PyFloat_AS_DOUBLE(when);
    }
    return PyFloat_AsDouble(when); /* ints; error -> -1.0 with exception */
}

/* entry a < entry b under the (time, sequence) contract. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    double aw = entry_when(a);
    double bw = entry_when(b);
    if (aw != bw) {
        return aw < bw;
    }
    long long aseq = PyLong_AsLongLong(PyList_GET_ITEM(a, 1));
    long long bseq = PyLong_AsLongLong(PyList_GET_ITEM(b, 1));
    return aseq < bseq;
}

/* heapq._siftup(heap, 0) specialised for entry lists. */
static void
heap_siftup_root(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    Py_ssize_t pos = 0;
    PyObject *item = PyList_GET_ITEM(heap, 0);
    Py_INCREF(item);
    Py_ssize_t child = 1;
    while (child < n) {
        Py_ssize_t right = child + 1;
        if (right < n &&
            !entry_lt(PyList_GET_ITEM(heap, child),
                      PyList_GET_ITEM(heap, right))) {
            child = right;
        }
        PyObject *smallest = PyList_GET_ITEM(heap, child);
        if (entry_lt(item, smallest)) {
            break;
        }
        Py_INCREF(smallest);
        PyList_SetItem(heap, pos, smallest); /* steals smallest ref */
        pos = child;
        child = 2 * pos + 1;
    }
    PyList_SetItem(heap, pos, item); /* steals item ref */
}

/* heapq.heappop(heap) -> new reference to the smallest entry. */
static PyObject *
heap_pop_entry(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 1) {
        return last;
    }
    PyObject *smallest = PyList_GET_ITEM(heap, 0);
    Py_INCREF(smallest);
    PyList_SetItem(heap, 0, last); /* steals last */
    heap_siftup_root(heap);
    return smallest;
}

/* ====================================================================== */
/* The batched run loop.                                                   */
/* ====================================================================== */

/* Dispatch one popped item; exact-type C events inline, everything else
 * (subclasses such as Process, _Throw records, pure-Python events) through the
 * _run_callbacks method. */
static int
dispatch(PyObject *event)
{
    if (Py_TYPE(event) == &Event_Type) {
        return event_dispatch_inline((CEvent *)event);
    }
    PyObject *res = PyObject_CallMethodNoArgs(event, s_run_callbacks);
    if (res == NULL) {
        return -1;
    }
    Py_DECREF(res);
    return 0;
}

static int
sentinel_done(PyObject *sentinel, int sentinel_is_c)
{
    if (sentinel_is_c) {
        return ((CEvent *)sentinel)->callbacks == Py_None;
    }
    PyObject *callbacks = PyObject_GetAttr(sentinel, s_callbacks);
    if (callbacks == NULL) {
        return -1;
    }
    int done = (callbacks == Py_None);
    Py_DECREF(callbacks);
    return done;
}

/* Recycle a popped heap entry into the pool, returning its event (new
 * reference) or NULL on error. */
static PyObject *
recycle_entry(PyObject *entry, PyObject *pool)
{
    PyObject *event = PyList_GET_ITEM(entry, 2);
    Py_INCREF(event);
    Py_INCREF(Py_None);
    PyList_SetItem(entry, 2, Py_None);
    if (PyList_Append(pool, entry) < 0) {
        Py_DECREF(event);
        return NULL;
    }
    return event;
}

static int
meter_add_counter(PyObject *meter, PyObject *name, long long delta)
{
    if (delta == 0) {
        return 0;
    }
    PyObject *current = PyObject_GetAttr(meter, name);
    if (current == NULL) {
        return -1;
    }
    PyObject *incr = PyLong_FromLongLong(delta);
    if (incr == NULL) {
        Py_DECREF(current);
        return -1;
    }
    PyObject *total = PyNumber_Add(current, incr);
    Py_DECREF(current);
    Py_DECREF(incr);
    if (total == NULL) {
        return -1;
    }
    int status = PyObject_SetAttr(meter, name, total);
    Py_DECREF(total);
    return status;
}

static int
meter_add_wall(PyObject *meter, PyObject *name, double delta)
{
    PyObject *current = PyObject_GetAttr(meter, name);
    if (current == NULL) {
        return -1;
    }
    double base = PyFloat_AsDouble(current);
    Py_DECREF(current);
    if (base == -1.0 && PyErr_Occurred()) {
        return -1;
    }
    PyObject *total = PyFloat_FromDouble(base + delta);
    if (total == NULL) {
        return -1;
    }
    int status = PyObject_SetAttr(meter, name, total);
    Py_DECREF(total);
    return status;
}

/* run(sim, until, is_sentinel) — mirrors Simulator.run()'s batched loop. */
static PyObject *
ckernel_run(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "run() requires (sim, until, is_sentinel)");
        return NULL;
    }
    PyObject *sim = args[0];
    PyObject *until = args[1];
    int is_sentinel = PyObject_IsTrue(args[2]);
    if (is_sentinel < 0) {
        return NULL;
    }

    PyObject *result = NULL;
    PyObject *fast_obj = NULL, *heap = NULL, *pool = NULL, *meter = NULL;
    PyObject *horizon_obj = NULL;
    long long lane = 0, heap_hits = 0;
    int failed = 0;

    fast_obj = PyObject_GetAttr(sim, s_fast);
    if (fast_obj == NULL) {
        return NULL;
    }
    if (Py_TYPE(fast_obj) != &FastLane_Type) {
        Py_DECREF(fast_obj);
        PyErr_SetString(PyExc_TypeError,
                        "_ckernel.run requires a FastLane fast lane");
        return NULL;
    }
    FastLane *fast = (FastLane *)fast_obj;
    heap = PyObject_GetAttr(sim, s_heap);
    pool = PyObject_GetAttr(sim, s_pool);
    meter = PyObject_GetAttr(sim, s_meter);
    if (heap == NULL || pool == NULL || meter == NULL) {
        failed = 1;
        goto flush;
    }
    PyObject *enabled_obj = PyObject_GetAttr(meter, s_enabled);
    if (enabled_obj == NULL) {
        failed = 1;
        goto flush;
    }
    int metered = PyObject_IsTrue(enabled_obj);
    Py_DECREF(enabled_obj);
    if (metered < 0) {
        failed = 1;
        goto flush;
    }
    double started = metered ? monotonic_seconds() : 0.0;

    /* Current clock, mirrored as a C double for heap-front compares; the
     * attribute itself stays authoritative for callbacks. */
    PyObject *now_obj = PyObject_GetAttr(sim, s_now);
    if (now_obj == NULL) {
        failed = 1;
        goto flush_timed;
    }
    double now_d = PyFloat_AsDouble(now_obj);
    Py_DECREF(now_obj);
    if (now_d == -1.0 && PyErr_Occurred()) {
        failed = 1;
        goto flush_timed;
    }

    if (is_sentinel) {
        PyObject *sentinel = until;
        int sentinel_is_c = PyObject_TypeCheck(sentinel, &Event_Type);
        for (;;) {
            int done = sentinel_done(sentinel, sentinel_is_c);
            if (done < 0) {
                failed = 1;
                goto flush_timed;
            }
            if (done) {
                break;
            }
            if (fast->count) {
                Py_ssize_t heap_n = PyList_GET_SIZE(heap);
                if (heap_n &&
                    entry_when(PyList_GET_ITEM(heap, 0)) == now_d) {
                    PyObject *entry = heap_pop_entry(heap);
                    if (entry == NULL) {
                        failed = 1;
                        goto flush_timed;
                    }
                    PyObject *event = recycle_entry(entry, pool);
                    Py_DECREF(entry);
                    if (event == NULL) {
                        failed = 1;
                        goto flush_timed;
                    }
                    heap_hits++;
                    int status = dispatch(event);
                    Py_DECREF(event);
                    if (status < 0) {
                        failed = 1;
                        goto flush_timed;
                    }
                    continue;
                }
                /* Batch drain: nothing can enter the heap at the current
                 * time while the clock holds still. */
                while (fast->count) {
                    PyObject *event = fastlane_popleft_internal(fast);
                    lane++;
                    int status = dispatch(event);
                    Py_DECREF(event);
                    if (status < 0) {
                        failed = 1;
                        goto flush_timed;
                    }
                    done = sentinel_done(sentinel, sentinel_is_c);
                    if (done < 0) {
                        failed = 1;
                        goto flush_timed;
                    }
                    if (done) {
                        break;
                    }
                }
            }
            else if (PyList_GET_SIZE(heap)) {
                PyObject *entry = heap_pop_entry(heap);
                if (entry == NULL) {
                    failed = 1;
                    goto flush_timed;
                }
                PyObject *when = PyList_GET_ITEM(entry, 0);
                if (PyObject_SetAttr(sim, s_now, when) < 0) {
                    Py_DECREF(entry);
                    failed = 1;
                    goto flush_timed;
                }
                now_d = entry_when(entry);
                PyObject *event = recycle_entry(entry, pool);
                Py_DECREF(entry);
                if (event == NULL) {
                    failed = 1;
                    goto flush_timed;
                }
                heap_hits++;
                int status = dispatch(event);
                Py_DECREF(event);
                if (status < 0) {
                    failed = 1;
                    goto flush_timed;
                }
            }
            else {
                PyErr_SetString(g_simulation_error,
                                "simulation ran out of events before the "
                                "target event triggered (deadlock?)");
                failed = 1;
                goto flush_timed;
            }
        }
        /* sentinel processed: return its value or raise its exception. */
        PyObject *ok_obj, *value_obj;
        if (sentinel_is_c) {
            ok_obj = ((CEvent *)sentinel)->e_ok;
            Py_XINCREF(ok_obj);
            value_obj = ((CEvent *)sentinel)->e_value;
            Py_XINCREF(value_obj);
        }
        else {
            ok_obj = PyObject_GetAttr(sentinel, s_ok);
            value_obj = ok_obj ? PyObject_GetAttr(sentinel, s_value) : NULL;
        }
        if (ok_obj == NULL || value_obj == NULL) {
            Py_XDECREF(ok_obj);
            Py_XDECREF(value_obj);
            failed = 1;
            goto flush_timed;
        }
        int ok = PyObject_IsTrue(ok_obj);
        Py_DECREF(ok_obj);
        if (ok < 0) {
            Py_DECREF(value_obj);
            failed = 1;
            goto flush_timed;
        }
        if (ok) {
            result = value_obj;
        }
        else {
            PyErr_SetObject(PyExceptionInstance_Class(value_obj), value_obj);
            Py_DECREF(value_obj);
            failed = 1;
        }
        goto flush_timed;
    }

    /* Horizon / run-to-empty mode. */
    double horizon;
    if (until == Py_None) {
        horizon = INFINITY;
    }
    else {
        horizon_obj = PyNumber_Float(until);
        if (horizon_obj == NULL) {
            failed = 1;
            goto flush_timed;
        }
        horizon = PyFloat_AS_DOUBLE(horizon_obj);
        if (horizon < now_d) {
            PyObject *current = PyObject_GetAttr(sim, s_now);
            if (current != NULL) {
                PyErr_Format(g_simulation_error,
                             "cannot run until t=%S: clock already at t=%S",
                             horizon_obj, current);
                Py_DECREF(current);
            }
            failed = 1;
            goto flush_timed;
        }
    }
    for (;;) {
        if (fast->count) {
            Py_ssize_t heap_n = PyList_GET_SIZE(heap);
            if (heap_n && entry_when(PyList_GET_ITEM(heap, 0)) == now_d) {
                PyObject *entry = heap_pop_entry(heap);
                if (entry == NULL) {
                    failed = 1;
                    goto flush_timed;
                }
                PyObject *event = recycle_entry(entry, pool);
                Py_DECREF(entry);
                if (event == NULL) {
                    failed = 1;
                    goto flush_timed;
                }
                heap_hits++;
                int status = dispatch(event);
                Py_DECREF(event);
                if (status < 0) {
                    failed = 1;
                    goto flush_timed;
                }
                continue;
            }
            while (fast->count) {
                PyObject *event = fastlane_popleft_internal(fast);
                lane++;
                int status = dispatch(event);
                Py_DECREF(event);
                if (status < 0) {
                    failed = 1;
                    goto flush_timed;
                }
            }
        }
        else if (PyList_GET_SIZE(heap)) {
            double when_d = entry_when(PyList_GET_ITEM(heap, 0));
            if (when_d == -1.0 && PyErr_Occurred()) {
                failed = 1;
                goto flush_timed;
            }
            if (when_d > horizon) {
                break;
            }
            PyObject *entry = heap_pop_entry(heap);
            if (entry == NULL) {
                failed = 1;
                goto flush_timed;
            }
            PyObject *when = PyList_GET_ITEM(entry, 0);
            if (PyObject_SetAttr(sim, s_now, when) < 0) {
                Py_DECREF(entry);
                failed = 1;
                goto flush_timed;
            }
            now_d = when_d;
            PyObject *event = recycle_entry(entry, pool);
            Py_DECREF(entry);
            if (event == NULL) {
                failed = 1;
                goto flush_timed;
            }
            heap_hits++;
            int status = dispatch(event);
            Py_DECREF(event);
            if (status < 0) {
                failed = 1;
                goto flush_timed;
            }
        }
        else {
            break;
        }
    }
    if (horizon_obj != NULL) {
        /* Finite horizon: advance the clock exactly to it (the float()
         * result, matching the pure loop). */
        if (PyObject_SetAttr(sim, s_now, horizon_obj) < 0) {
            failed = 1;
            goto flush_timed;
        }
    }
    result = Py_None;
    Py_INCREF(result);

flush_timed:
    if (meter != NULL) {
        /* Flush local counters exactly like the pure loop's finally. */
        PyObject *exc_type = NULL, *exc_value = NULL, *exc_tb = NULL;
        if (failed) {
            PyErr_Fetch(&exc_type, &exc_value, &exc_tb);
        }
        int flush_failed =
            meter_add_counter(meter, s_fast_lane_hits, lane) < 0 ||
            meter_add_counter(meter, s_batched_events, lane) < 0 ||
            meter_add_counter(meter, s_heap_hits, heap_hits) < 0;
        if (!flush_failed && metered) {
            flush_failed = meter_add_wall(meter, s_kernel_flush,
                                          monotonic_seconds() - started) < 0;
        }
        if (failed) {
            if (flush_failed) {
                PyErr_Clear();
            }
            PyErr_Restore(exc_type, exc_value, exc_tb);
        }
        else if (flush_failed) {
            failed = 1;
            Py_CLEAR(result);
        }
    }
flush:
    Py_XDECREF(horizon_obj);
    Py_XDECREF(fast_obj);
    Py_XDECREF(heap);
    Py_XDECREF(pool);
    Py_XDECREF(meter);
    if (failed) {
        Py_XDECREF(result);
        return NULL;
    }
    return result;
}

/* ====================================================================== */
/* Binding + module boilerplate.                                           */
/* ====================================================================== */

static PyObject *
ckernel_bind_events(PyObject *module, PyObject *args)
{
    PyObject *pending, *already;
    if (!PyArg_ParseTuple(args, "OO:_bind_events", &pending, &already)) {
        return NULL;
    }
    Py_INCREF(pending);
    Py_XSETREF(g_pending, pending);
    Py_INCREF(already);
    Py_XSETREF(g_already_triggered, already);
    Py_RETURN_NONE;
}

static PyObject *
ckernel_bind_kernel(PyObject *module, PyObject *args)
{
    PyObject *error;
    if (!PyArg_ParseTuple(args, "O:_bind_kernel", &error)) {
        return NULL;
    }
    Py_INCREF(error);
    Py_XSETREF(g_simulation_error, error);
    Py_RETURN_NONE;
}

static PyMethodDef ckernel_methods[] = {
    {"run", (PyCFunction)(void (*)(void))ckernel_run, METH_FASTCALL,
     "run(sim, until, is_sentinel): the compiled batched dispatch loop."},
    {"_bind_events", ckernel_bind_events, METH_VARARGS,
     "Register events._PENDING and EventAlreadyTriggered."},
    {"_bind_kernel", ckernel_bind_kernel, METH_VARARGS,
     "Register kernel.SimulationError."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ckernel",
    .m_doc = "Compiled kernel core: FastLane, Event, batched run loop.",
    .m_size = -1,
    .m_methods = ckernel_methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (PyType_Ready(&FastLane_Type) < 0 || PyType_Ready(&Event_Type) < 0) {
        return NULL;
    }
#define INTERN(var, text)                                                   \
    do {                                                                    \
        var = PyUnicode_InternFromString(text);                             \
        if (var == NULL) {                                                  \
            return NULL;                                                    \
        }                                                                   \
    } while (0)
    INTERN(s_fast, "_fast");
    INTERN(s_heap, "_heap");
    INTERN(s_pool, "_entry_pool");
    INTERN(s_now, "_now");
    INTERN(s_meter, "meter");
    INTERN(s_enabled, "enabled");
    INTERN(s_append, "append");
    INTERN(s_callbacks, "callbacks");
    INTERN(s_run_callbacks, "_run_callbacks");
    INTERN(s_ok, "_ok");
    INTERN(s_value, "_value");
    INTERN(s_fast_lane_hits, "fast_lane_hits");
    INTERN(s_heap_hits, "heap_hits");
    INTERN(s_batched_events, "batched_events");
    INTERN(s_kernel_flush, "kernel_flush_wall_s");
#undef INTERN

    PyObject *module = PyModule_Create(&ckernel_module);
    if (module == NULL) {
        return NULL;
    }
    Py_INCREF(&FastLane_Type);
    if (PyModule_AddObject(module, "FastLane",
                           (PyObject *)&FastLane_Type) < 0) {
        Py_DECREF(&FastLane_Type);
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&Event_Type);
    if (PyModule_AddObject(module, "Event", (PyObject *)&Event_Type) < 0) {
        Py_DECREF(&Event_Type);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddIntConstant(module, "compiled", 1) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
