/* Compiled calendar-queue DES core.
 *
 * A CPython C implementation of the simulator hot path: the ladder
 * variant of a calendar queue (sorted current rung drained by index,
 * unsorted future rung, O(1) appends, one sort per refill) plus the
 * schedule / at / run / run_before loops.  Scheduling is one-way: each
 * queue entry holds the callback and its argument tuple, and nothing
 * is returned to the caller: a queued event always fires.
 *
 * Semantics mirror repro.sim.engine.Simulator exactly: events are
 * totally ordered by (time, priority, seq); time arithmetic is IEEE
 * double in both interpreters, so runs are bit-identical to the pure
 * Python engines.  See repro/sim/eventq.py for the pure-Python
 * fallback and DESIGN.md section 10 for the determinism argument.
 *
 * Built optionally (hand-written C99, no Cython/mypyc dependency) by
 * setup.py; repro.sim.eventq falls back to the reference heap when
 * the module is absent.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Entry and ordering                                                 */
/* ------------------------------------------------------------------ */

typedef struct {
    double time;
    long prio;
    long long seq;
    PyObject *fn;          /* strong */
    PyObject *args;        /* strong, tuple */
} Entry;

/* (time, priority, seq) lexicographic; seq unique => never equal. */
static inline int
entry_lt(const Entry *a, const Entry *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    if (a->prio != b->prio)
        return a->prio < b->prio;
    return a->seq < b->seq;
}

static int
entry_cmp_qsort(const void *pa, const void *pb)
{
    const Entry *a = (const Entry *)pa, *b = (const Entry *)pb;
    return entry_lt(a, b) ? -1 : 1;
}

/* ------------------------------------------------------------------ */
/* Types                                                              */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    double now;
    long long seq;
    long long events_processed;
    int running;
    /* current rung: sorted ascending, drained via cur_pos */
    Entry *cur;
    Py_ssize_t cur_len, cur_cap, cur_pos;
    /* future rung: unsorted appends, every key > cur[cur_len-1] */
    Entry *top;
    Py_ssize_t top_len, top_cap;
} CalSimObject;

static PyTypeObject CalSim_Type;
static PyObject *SimulationError;   /* borrowed from repro.sim.engine */

#define TRIM_POS 4096

/* ------------------------------------------------------------------ */
/* CalSim storage helpers                                             */
/* ------------------------------------------------------------------ */

static int
grow(Entry **arr, Py_ssize_t *cap, Py_ssize_t need)
{
    if (need <= *cap)
        return 0;
    Py_ssize_t ncap = *cap ? *cap : 64;
    while (ncap < need)
        ncap *= 2;
    Entry *p = (Entry *)PyMem_Realloc(*arr, (size_t)ncap * sizeof(Entry));
    if (p == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *arr = p;
    *cap = ncap;
    return 0;
}

/* Insert into the sorted live region cur[cur_pos..cur_len). */
static int
cur_insort(CalSimObject *self, const Entry *e)
{
    if (grow(&self->cur, &self->cur_cap, self->cur_len + 1) < 0)
        return -1;
    Py_ssize_t lo = self->cur_pos, hi = self->cur_len;
    Entry *cur = self->cur;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) >> 1;
        if (entry_lt(&cur[mid], e))
            lo = mid + 1;
        else
            hi = mid;
    }
    memmove(cur + lo + 1, cur + lo,
            (size_t)(self->cur_len - lo) * sizeof(Entry));
    cur[lo] = *e;
    self->cur_len++;
    return 0;
}

/* Push one entry; on success the queue owns the references held in
 * e->fn and e->args. */
static int
queue_push(CalSimObject *self, const Entry *e)
{
    if (self->cur_pos < self->cur_len &&
        entry_lt(e, &self->cur[self->cur_len - 1]))
        return cur_insort(self, e);
    if (grow(&self->top, &self->top_cap, self->top_len + 1) < 0)
        return -1;
    self->top[self->top_len++] = *e;
    return 0;
}

/* Drop the consumed prefix so cur cannot grow without bound when the
 * rung never fully drains (self-rescheduling chains insort ahead of
 * the read pointer). */
static inline void
cur_trim(CalSimObject *self)
{
    if (self->cur_pos >= TRIM_POS) {
        memmove(self->cur, self->cur + self->cur_pos,
                (size_t)(self->cur_len - self->cur_pos) * sizeof(Entry));
        self->cur_len -= self->cur_pos;
        self->cur_pos = 0;
    }
}

/* Refill cur from top when drained.  Returns live entry count. */
static Py_ssize_t
queue_refill(CalSimObject *self)
{
    if (self->cur_pos >= self->cur_len) {
        self->cur_len = 0;
        self->cur_pos = 0;
        if (self->top_len == 0)
            return 0;
        qsort(self->top, (size_t)self->top_len, sizeof(Entry),
              entry_cmp_qsort);
        /* swap rungs: sorted former-top becomes current */
        Entry *t = self->cur;
        Py_ssize_t tcap = self->cur_cap;
        self->cur = self->top;
        self->cur_cap = self->top_cap;
        self->cur_len = self->top_len;
        self->top = t;
        self->top_cap = tcap;
        self->top_len = 0;
    }
    return self->cur_len - self->cur_pos;
}

/* ------------------------------------------------------------------ */
/* CalSim lifecycle                                                   */
/* ------------------------------------------------------------------ */

static PyObject *
calsim_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    CalSimObject *self = (CalSimObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->now = 0.0;
    self->seq = 0;
    self->events_processed = 0;
    self->running = 0;
    self->cur = NULL;
    self->cur_len = self->cur_cap = self->cur_pos = 0;
    self->top = NULL;
    self->top_len = self->top_cap = 0;
    return (PyObject *)self;
}

static int
calsim_traverse(CalSimObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = self->cur_pos; i < self->cur_len; i++) {
        Py_VISIT(self->cur[i].fn);
        Py_VISIT(self->cur[i].args);
    }
    for (Py_ssize_t i = 0; i < self->top_len; i++) {
        Py_VISIT(self->top[i].fn);
        Py_VISIT(self->top[i].args);
    }
    return 0;
}

static int
calsim_clear_entries(CalSimObject *self)
{
    /* Release live refs; safe against re-entry because the regions
     * are emptied before the DECREFs run. */
    Entry *cur = self->cur;
    Py_ssize_t lo = self->cur_pos, hi = self->cur_len;
    self->cur_len = self->cur_pos = 0;
    for (Py_ssize_t i = lo; i < hi; i++) {
        Py_DECREF(cur[i].fn);
        Py_DECREF(cur[i].args);
    }
    Entry *top = self->top;
    Py_ssize_t tn = self->top_len;
    self->top_len = 0;
    for (Py_ssize_t i = 0; i < tn; i++) {
        Py_DECREF(top[i].fn);
        Py_DECREF(top[i].args);
    }
    return 0;
}

static int
calsim_clear(CalSimObject *self)
{
    return calsim_clear_entries(self);
}

static void
calsim_dealloc(CalSimObject *self)
{
    PyObject_GC_UnTrack(self);
    calsim_clear_entries(self);
    PyMem_Free(self->cur);
    PyMem_Free(self->top);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* ------------------------------------------------------------------ */
/* Scheduling                                                         */
/* ------------------------------------------------------------------ */

/* The one keyword schedule()/at() accept is priority=; any other is
 * a TypeError, raised before anything (event or seq) is admitted. */
static int
parse_priority(PyObject *kwds, const char *fname, long *priority)
{
    *priority = 0;
    if (kwds == NULL)
        return 0;
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    while (PyDict_Next(kwds, &pos, &key, &value)) {
        if (PyUnicode_CompareWithASCIIString(key, "priority") != 0) {
            PyErr_Format(PyExc_TypeError,
                         "%s() got an unexpected keyword argument '%S'",
                         fname, key);
            return -1;
        }
        *priority = PyLong_AsLong(value);
        if (*priority == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* Shared tail of schedule()/at(): queue (t, priority, seq, fn, args). */
static PyObject *
schedule_common(CalSimObject *self, double t, long priority, PyObject *args)
{
    PyObject *cb_args = PyTuple_GetSlice(args, 2, PyTuple_GET_SIZE(args));
    if (cb_args == NULL)
        return NULL;
    PyObject *fn = PyTuple_GET_ITEM(args, 1);
    Entry e = {t, priority, self->seq, fn, cb_args};
    if (queue_push(self, &e) < 0) {
        Py_DECREF(cb_args);
        return NULL;
    }
    Py_INCREF(fn);      /* the queue's references: fn, and cb_args' own */
    self->seq++;
    Py_RETURN_NONE;
}

static PyObject *
calsim_schedule(CalSimObject *self, PyObject *args, PyObject *kwds)
{
    long priority;
    if (parse_priority(kwds, "schedule", &priority) < 0)
        return NULL;
    if (PyTuple_GET_SIZE(args) < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule() requires (delay, fn, ...)");
        return NULL;
    }
    double delay = PyFloat_AsDouble(PyTuple_GET_ITEM(args, 0));
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(delay >= 0.0)) {
        PyErr_Format(SimulationError, "negative delay: %R",
                     PyTuple_GET_ITEM(args, 0));
        return NULL;
    }
    return schedule_common(self, self->now + delay, priority, args);
}

static PyObject *
calsim_at(CalSimObject *self, PyObject *args, PyObject *kwds)
{
    long priority;
    if (parse_priority(kwds, "at", &priority) < 0)
        return NULL;
    if (PyTuple_GET_SIZE(args) < 2) {
        PyErr_SetString(PyExc_TypeError, "at() requires (time, fn, ...)");
        return NULL;
    }
    double t = PyFloat_AsDouble(PyTuple_GET_ITEM(args, 0));
    if (t == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(t >= self->now)) {
        PyObject *nowf = PyFloat_FromDouble(self->now);
        PyErr_Format(SimulationError,
                     "cannot schedule in the past: t=%R < now=%R",
                     PyTuple_GET_ITEM(args, 0), nowf);
        Py_XDECREF(nowf);
        return NULL;
    }
    return schedule_common(self, t, priority, args);
}

/* ------------------------------------------------------------------ */
/* Execution                                                          */
/* ------------------------------------------------------------------ */

/* Pop the entry at cur_pos and call it.  The pointer into cur is
 * stale once the callback runs (insort shifts or reallocs cur), so
 * the callback and its arguments are taken out first; the queue's
 * references are released after the call. */
static int
fire_next(CalSimObject *self)
{
    Entry *e = &self->cur[self->cur_pos++];
    PyObject *fn = e->fn, *args = e->args;
    self->now = e->time;
    PyObject *res = PyObject_Call(fn, args, NULL);
    Py_DECREF(fn);
    Py_DECREF(args);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* The one event loop: fire events in (time, priority, seq) order
 * until the queue drains or, when `bounded`, the next event is at or
 * after `bound`.  run() is the unbounded case, run_before(bound) one
 * conservative window; neither moves the clock past the last event
 * fired. */
static PyObject *
run_loop(CalSimObject *self, int bounded, double bound, const char *name)
{
    if (self->running) {
        PyErr_Format(SimulationError, "Simulator.%s() is not reentrant",
                     name);
        return NULL;
    }
    self->running = 1;
    long long fired = 0;
    int err = 0;
    for (;;) {
        if (queue_refill(self) == 0)
            break;
        cur_trim(self);
        if (bounded && self->cur[self->cur_pos].time >= bound)
            break;
        fired++;
        err = fire_next(self);
        if (err < 0)
            break;
    }
    self->events_processed += fired;
    self->running = 0;
    if (err < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
calsim_run(CalSimObject *self, PyObject *Py_UNUSED(ignored))
{
    return run_loop(self, 0, 0.0, "run");
}

static PyObject *
calsim_run_before(CalSimObject *self, PyObject *arg)
{
    double bound = PyFloat_AsDouble(arg);
    if (bound == -1.0 && PyErr_Occurred())
        return NULL;
    return run_loop(self, 1, bound, "run_before");
}

static PyObject *
calsim_next_event_time(CalSimObject *self, PyObject *Py_UNUSED(ignored))
{
    if (queue_refill(self) == 0)
        return PyFloat_FromDouble(Py_HUGE_VAL);
    return PyFloat_FromDouble(self->cur[self->cur_pos].time);
}

/* ------------------------------------------------------------------ */
/* Properties                                                         */
/* ------------------------------------------------------------------ */

static PyObject *
calsim_get_now(CalSimObject *self, void *closure)
{
    return PyFloat_FromDouble(self->now);
}

static int
calsim_set_now(CalSimObject *self, PyObject *value, void *closure)
{
    double v = PyFloat_AsDouble(value);
    if (v == -1.0 && PyErr_Occurred())
        return -1;
    self->now = v;
    return 0;
}

static PyObject *
calsim_get_events_processed(CalSimObject *self, void *closure)
{
    return PyLong_FromLongLong(self->events_processed);
}

static PyObject *
calsim_get_pending(CalSimObject *self, void *closure)
{
    return PyLong_FromSsize_t(
        (self->cur_len - self->cur_pos) + self->top_len);
}

static PyGetSetDef calsim_getset[] = {
    {"now", (getter)calsim_get_now, NULL,
     "Current simulated time in seconds.", NULL},
    {"_now", (getter)calsim_get_now, (setter)calsim_set_now, NULL, NULL},
    {"events_processed", (getter)calsim_get_events_processed, NULL,
     "Number of events fired since construction.", NULL},
    {"pending", (getter)calsim_get_pending, NULL,
     "Number of events still queued.", NULL},
    {NULL}
};

static PyMethodDef calsim_methods[] = {
    {"schedule", (PyCFunction)calsim_schedule,
     METH_VARARGS | METH_KEYWORDS,
     "schedule(delay, fn, *args, priority=0) -> None"},
    {"at", (PyCFunction)calsim_at, METH_VARARGS | METH_KEYWORDS,
     "at(time, fn, *args, priority=0) -> None"},
    {"run", (PyCFunction)calsim_run, METH_NOARGS,
     "Run until the queue drains."},
    {"run_before", (PyCFunction)calsim_run_before, METH_O,
     "Fire every event with time < bound, strictly."},
    {"next_event_time", (PyCFunction)calsim_next_event_time, METH_NOARGS,
     "Time of the next event, or inf."},
    {NULL}
};

static PyTypeObject CalSim_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ceventq.CalendarSimCore",
    .tp_basicsize = sizeof(CalSimObject),
    .tp_dealloc = (destructor)calsim_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_BASETYPE,
    .tp_doc = "Compiled calendar-queue simulator core.",
    .tp_traverse = (traverseproc)calsim_traverse,
    .tp_clear = (inquiry)calsim_clear,
    .tp_getset = calsim_getset,
    .tp_methods = calsim_methods,
    .tp_new = calsim_new,
};

/* ------------------------------------------------------------------ */
/* Module                                                             */
/* ------------------------------------------------------------------ */

static struct PyModuleDef ceventq_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ceventq",
    .m_doc = "Compiled calendar-queue DES core (optional fast path).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__ceventq(void)
{
    PyObject *engine = PyImport_ImportModule("repro.sim.engine");
    if (engine == NULL)
        return NULL;
    SimulationError = PyObject_GetAttrString(engine, "SimulationError");
    Py_DECREF(engine);
    if (SimulationError == NULL)
        return NULL;
    if (PyType_Ready(&CalSim_Type) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&ceventq_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&CalSim_Type);
    PyModule_AddObject(m, "CalendarSimCore", (PyObject *)&CalSim_Type);
    return m;
}
