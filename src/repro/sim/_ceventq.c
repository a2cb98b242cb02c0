/* Compiled calendar-queue DES core.
 *
 * A CPython C implementation of the simulator hot path: the ladder
 * variant of a calendar queue (sorted current rung drained by index,
 * unsorted future rung, O(1) appends, one sort per refill) plus the
 * schedule / at / schedule_batch / run / run_before loops, and a
 * C-level Event type.
 *
 * Semantics mirror repro.sim.engine.Simulator exactly: events are
 * totally ordered by (time, priority, seq); time arithmetic is IEEE
 * double in both interpreters, so runs are bit-identical to the pure
 * Python engines.  See repro/sim/eventq.py for the pure-Python
 * fallback and DESIGN.md section 10 for the determinism argument.
 *
 * Built optionally (hand-written C99, no Cython/mypyc dependency) by
 * setup.py; repro.sim.eventq falls back to the pure-Python ladder
 * when the module is absent.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Entry and ordering                                                 */
/* ------------------------------------------------------------------ */

typedef struct {
    double time;
    long prio;
    long long seq;
    PyObject *ev;          /* strong ref to CEvent */
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
    double time;
    long priority;
    long long seq;
    PyObject *fn;          /* strong */
    PyObject *args;        /* strong, tuple */
    PyObject *kwargs;      /* strong dict or NULL (empty) */
    PyObject *sim;         /* strong ref to owning CalSim, or NULL */
    char cancelled;
    char popped;
} CEventObject;

typedef struct {
    PyObject_HEAD
    double now;
    long long seq;
    long long events_processed;
    long long cancelled_pending;   /* cancelled but still queued */
    int running;
    /* current rung: sorted ascending, drained via cur_pos */
    Entry *cur;
    Py_ssize_t cur_len, cur_cap, cur_pos;
    /* future rung: unsorted appends, every key > cur[cur_len-1] */
    Entry *top;
    Py_ssize_t top_len, top_cap;
} CalSimObject;

static PyTypeObject CEvent_Type;
static PyTypeObject CalSim_Type;
static PyObject *SimulationError;   /* borrowed from repro.sim.engine */

#define COMPACT_MIN 64
#define TRIM_POS 4096

static void calsim_note_cancel(CalSimObject *self);

/* ------------------------------------------------------------------ */
/* CEvent                                                             */
/* ------------------------------------------------------------------ */

static CEventObject *cevent_freelist[64];
static int cevent_numfree = 0;

static CEventObject *
cevent_new(double time, long priority, long long seq,
           PyObject *fn, PyObject *args, PyObject *kwargs, PyObject *sim)
{
    CEventObject *ev;
    if (cevent_numfree) {
        ev = cevent_freelist[--cevent_numfree];
        _Py_NewReference((PyObject *)ev);
    }
    else {
        ev = PyObject_GC_New(CEventObject, &CEvent_Type);
        if (ev == NULL)
            return NULL;
    }
    ev->time = time;
    ev->priority = priority;
    ev->seq = seq;
    Py_INCREF(fn);
    ev->fn = fn;
    Py_INCREF(args);
    ev->args = args;
    Py_XINCREF(kwargs);
    ev->kwargs = kwargs;
    Py_XINCREF(sim);
    ev->sim = sim;
    ev->cancelled = 0;
    ev->popped = 0;
    PyObject_GC_Track(ev);
    return ev;
}

static void
cevent_dealloc(CEventObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_CLEAR(self->fn);
    Py_CLEAR(self->args);
    Py_CLEAR(self->kwargs);
    Py_CLEAR(self->sim);
    if (cevent_numfree < 64 && Py_TYPE(self) == &CEvent_Type)
        cevent_freelist[cevent_numfree++] = self;
    else
        PyObject_GC_Del(self);
}

static int
cevent_traverse(CEventObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->fn);
    Py_VISIT(self->args);
    Py_VISIT(self->kwargs);
    Py_VISIT(self->sim);
    return 0;
}

static int
cevent_clear(CEventObject *self)
{
    Py_CLEAR(self->fn);
    Py_CLEAR(self->args);
    Py_CLEAR(self->kwargs);
    Py_CLEAR(self->sim);
    return 0;
}

static PyObject *
cevent_cancel(CEventObject *self, PyObject *Py_UNUSED(ignored))
{
    if (!self->cancelled) {
        self->cancelled = 1;
        /* PyObject_TypeCheck, not an exact match: the Python wrapper
         * (CompiledSimulator) subclasses CalendarSimCore. */
        if (!self->popped && self->sim != NULL &&
            PyObject_TypeCheck(self->sim, &CalSim_Type))
            calsim_note_cancel((CalSimObject *)self->sim);
    }
    Py_RETURN_NONE;
}

static PyObject *
cevent_fire(CEventObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->cancelled)
        Py_RETURN_NONE;
    PyObject *res = PyObject_Call(self->fn, self->args, self->kwargs);
    if (res == NULL)
        return NULL;
    Py_DECREF(res);
    Py_RETURN_NONE;
}

static PyObject *
cevent_sort_key(CEventObject *self, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue("(dlL)", self->time, self->priority, self->seq);
}

static PyObject *
cevent_richcompare(PyObject *a, PyObject *b, int op)
{
    if (op != Py_LT || Py_TYPE(a) != &CEvent_Type || Py_TYPE(b) != &CEvent_Type)
        Py_RETURN_NOTIMPLEMENTED;
    CEventObject *ea = (CEventObject *)a, *eb = (CEventObject *)b;
    Entry x = {ea->time, ea->priority, ea->seq, NULL};
    Entry y = {eb->time, eb->priority, eb->seq, NULL};
    return PyBool_FromLong(entry_lt(&x, &y));
}

static PyObject *
cevent_get_cancelled(CEventObject *self, void *closure)
{
    return PyBool_FromLong(self->cancelled);
}

static PyObject *
cevent_get_kwargs(CEventObject *self, void *closure)
{
    if (self->kwargs == NULL)
        Py_RETURN_NONE;
    Py_INCREF(self->kwargs);
    return self->kwargs;
}

static PyObject *
cevent_repr(CEventObject *self)
{
    PyObject *t = PyFloat_FromDouble(self->time);
    if (t == NULL)
        return NULL;
    PyObject *out = PyUnicode_FromFormat(
        "<Event t=%R prio=%ld seq=%lld%s>",
        t, self->priority, self->seq,
        self->cancelled ? " CANCELLED" : "");
    Py_DECREF(t);
    return out;
}

static PyMethodDef cevent_methods[] = {
    {"cancel", (PyCFunction)cevent_cancel, METH_NOARGS,
     "Mark the event so it is skipped when popped."},
    {"fire", (PyCFunction)cevent_fire, METH_NOARGS,
     "Invoke the callback unless cancelled."},
    {"sort_key", (PyCFunction)cevent_sort_key, METH_NOARGS,
     "The (time, priority, seq) ordering tuple."},
    {NULL}
};

static PyMemberDef cevent_members[] = {
    {"time", T_DOUBLE, offsetof(CEventObject, time), READONLY, NULL},
    {"priority", T_LONG, offsetof(CEventObject, priority), READONLY, NULL},
    {"fn", T_OBJECT, offsetof(CEventObject, fn), READONLY, NULL},
    {"args", T_OBJECT, offsetof(CEventObject, args), READONLY, NULL},
    {NULL}
};

static PyObject *
cevent_get_seq(CEventObject *self, void *closure)
{
    return PyLong_FromLongLong(self->seq);
}

static PyGetSetDef cevent_getset[] = {
    {"seq", (getter)cevent_get_seq, NULL, NULL, NULL},
    {"cancelled", (getter)cevent_get_cancelled, NULL,
     "True once cancel() was called.", NULL},
    {"_cancelled", (getter)cevent_get_cancelled, NULL, NULL, NULL},
    {"kwargs", (getter)cevent_get_kwargs, NULL, NULL, NULL},
    {NULL}
};

static PyTypeObject CEvent_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ceventq.Event",
    .tp_basicsize = sizeof(CEventObject),
    .tp_dealloc = (destructor)cevent_dealloc,
    .tp_repr = (reprfunc)cevent_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A pending callback in simulated time (compiled core).",
    .tp_traverse = (traverseproc)cevent_traverse,
    .tp_clear = (inquiry)cevent_clear,
    .tp_richcompare = cevent_richcompare,
    .tp_methods = cevent_methods,
    .tp_members = cevent_members,
    .tp_getset = cevent_getset,
};

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

/* Push one entry; steals no references (caller must own e->ev and
 * keep that ownership transferring into the queue). */
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

static void
calsim_note_cancel(CalSimObject *self)
{
    self->cancelled_pending++;
    Py_ssize_t pending = (self->cur_len - self->cur_pos) + self->top_len;
    if (self->cancelled_pending > COMPACT_MIN &&
        self->cancelled_pending * 2 > pending) {
        /* Compact in place: the run loop re-reads cur/cur_pos after
         * every callback and holds no Entry pointer across one, so
         * filtering the live regions here (possibly mid-run, from a
         * cancel inside a callback) is safe.  Only the unread tail of
         * cur moves; cur_pos stays valid. */
        Entry *cur = self->cur;
        Py_ssize_t w = self->cur_pos;
        for (Py_ssize_t i = self->cur_pos; i < self->cur_len; i++) {
            CEventObject *ev = (CEventObject *)cur[i].ev;
            if (ev->cancelled) {
                ev->popped = 1;
                Py_DECREF(ev);
            }
            else
                cur[w++] = cur[i];
        }
        self->cur_len = w;
        Entry *top = self->top;
        Py_ssize_t tw = 0;
        for (Py_ssize_t i = 0; i < self->top_len; i++) {
            CEventObject *ev = (CEventObject *)top[i].ev;
            if (ev->cancelled) {
                ev->popped = 1;
                Py_DECREF(ev);
            }
            else
                top[tw++] = top[i];
        }
        self->top_len = tw;
        self->cancelled_pending = 0;
    }
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
    self->cancelled_pending = 0;
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
    for (Py_ssize_t i = self->cur_pos; i < self->cur_len; i++)
        Py_VISIT(self->cur[i].ev);
    for (Py_ssize_t i = 0; i < self->top_len; i++)
        Py_VISIT(self->top[i].ev);
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
    for (Py_ssize_t i = lo; i < hi; i++)
        Py_DECREF(cur[i].ev);
    Entry *top = self->top;
    Py_ssize_t tn = self->top_len;
    self->top_len = 0;
    for (Py_ssize_t i = 0; i < tn; i++)
        Py_DECREF(top[i].ev);
    self->cancelled_pending = 0;
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

/* Shared tail of schedule()/at(): build the event, push, return it. */
static PyObject *
schedule_common(CalSimObject *self, double t, PyObject *args,
                PyObject *kwds)
{
    long priority = 0;
    PyObject *cb_kwargs = NULL;       /* owned when != NULL */
    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyObject *prio = PyDict_GetItemString(kwds, "priority");
        if (prio != NULL) {
            priority = PyLong_AsLong(prio);
            if (priority == -1 && PyErr_Occurred())
                return NULL;
            if (PyDict_GET_SIZE(kwds) > 1) {
                cb_kwargs = PyDict_Copy(kwds);
                if (cb_kwargs == NULL)
                    return NULL;
                if (PyDict_DelItemString(cb_kwargs, "priority") < 0) {
                    Py_DECREF(cb_kwargs);
                    return NULL;
                }
            }
        }
        else {
            cb_kwargs = kwds;
            Py_INCREF(cb_kwargs);
        }
    }
    PyObject *fn = PyTuple_GET_ITEM(args, 1);
    PyObject *cb_args = PyTuple_GetSlice(args, 2, PyTuple_GET_SIZE(args));
    if (cb_args == NULL) {
        Py_XDECREF(cb_kwargs);
        return NULL;
    }
    long long seq = self->seq++;
    CEventObject *ev = cevent_new(t, priority, seq, fn, cb_args,
                                  cb_kwargs, (PyObject *)self);
    Py_DECREF(cb_args);
    Py_XDECREF(cb_kwargs);
    if (ev == NULL) {
        self->seq--;
        return NULL;
    }
    Entry e = {t, priority, seq, (PyObject *)ev};
    Py_INCREF(ev);                    /* the queue's reference */
    if (queue_push(self, &e) < 0) {
        self->seq--;
        Py_DECREF(ev);
        Py_DECREF(ev);
        return NULL;
    }
    return (PyObject *)ev;
}

static PyObject *
calsim_schedule(CalSimObject *self, PyObject *args, PyObject *kwds)
{
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
    return schedule_common(self, self->now + delay, args, kwds);
}

static PyObject *
calsim_at(CalSimObject *self, PyObject *args, PyObject *kwds)
{
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
    return schedule_common(self, t, args, kwds);
}

static PyObject *
calsim_schedule_batch(CalSimObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"entries", "priority", NULL};
    PyObject *entries;
    long priority = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|l", kwlist,
                                     &entries, &priority))
        return NULL;
    PyObject *seq_list = PySequence_Fast(entries, "entries must be iterable");
    if (seq_list == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq_list);
    PyObject **items = PySequence_Fast_ITEMS(seq_list);
    /* Validate and stage first: a failed batch must admit nothing
     * (neither queue nor sequence counter may move). */
    PyObject *events = PyList_New(n);
    if (events == NULL) {
        Py_DECREF(seq_list);
        return NULL;
    }
    double now = self->now;
    long long seq = self->seq;
    Py_ssize_t done = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = items[i];
        if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 3) {
            PyErr_SetString(PyExc_TypeError,
                            "batch entries must be (time, fn, args) tuples");
            goto fail;
        }
        double t = PyFloat_AsDouble(PyTuple_GET_ITEM(item, 0));
        if (t == -1.0 && PyErr_Occurred())
            goto fail;
        if (!(t >= now)) {
            PyObject *nowf = PyFloat_FromDouble(now);
            PyErr_Format(SimulationError,
                         "cannot schedule in the past: t=%R < now=%R",
                         PyTuple_GET_ITEM(item, 0), nowf);
            Py_XDECREF(nowf);
            goto fail;
        }
        PyObject *cb_args = PyTuple_GET_ITEM(item, 2);
        if (!PyTuple_Check(cb_args)) {
            PyErr_SetString(PyExc_TypeError,
                            "batch entry args must be a tuple");
            goto fail;
        }
        CEventObject *ev = cevent_new(t, priority, seq + i,
                                      PyTuple_GET_ITEM(item, 1),
                                      cb_args,
                                      NULL, (PyObject *)self);
        if (ev == NULL)
            goto fail;
        PyList_SET_ITEM(events, i, (PyObject *)ev);
        done = i + 1;
    }
    /* Commit. */
    self->seq = seq + n;
    for (Py_ssize_t i = 0; i < n; i++) {
        CEventObject *ev = (CEventObject *)PyList_GET_ITEM(events, i);
        Entry e = {ev->time, ev->priority, ev->seq, (PyObject *)ev};
        Py_INCREF(ev);
        if (queue_push(self, &e) < 0) {
            /* OOM mid-commit: drop the uncommitted remainder. */
            Py_DECREF(ev);
            Py_DECREF(seq_list);
            Py_DECREF(events);
            return NULL;
        }
    }
    Py_DECREF(seq_list);
    return events;
fail:
    (void)done;
    Py_DECREF(seq_list);
    Py_DECREF(events);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Execution                                                          */
/* ------------------------------------------------------------------ */

static int
fire_event(CEventObject *ev)
{
    PyObject *res = PyObject_Call(ev->fn, ev->args, ev->kwargs);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static PyObject *
calsim_run(CalSimObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_obj = Py_None, *max_obj = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO", kwlist,
                                     &until_obj, &max_obj))
        return NULL;
    int has_until = until_obj != Py_None;
    int has_max = max_obj != Py_None;
    double until = 0.0;
    long long max_events = 0;
    if (has_until) {
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (has_max) {
        max_events = PyLong_AsLongLong(max_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    if (self->running) {
        PyErr_SetString(SimulationError, "Simulator.run() is not reentrant");
        return NULL;
    }
    self->running = 1;
    long long fired = 0;
    int err = 0;
    int drained = 0;
    for (;;) {
        if (has_max && fired >= max_events)
            break;
        if (queue_refill(self) == 0) {
            drained = 1;
            break;
        }
        cur_trim(self);
        Entry *e = &self->cur[self->cur_pos];
        CEventObject *ev = (CEventObject *)e->ev;
        if (ev->cancelled) {
            self->cur_pos++;
            ev->popped = 1;
            self->cancelled_pending--;
            Py_DECREF(ev);
            continue;
        }
        if (has_until && e->time > until) {
            self->now = until;
            self->events_processed += fired;
            self->running = 0;
            Py_RETURN_NONE;
        }
        self->cur_pos++;
        ev->popped = 1;
        self->now = e->time;
        fired++;
        /* After the callback the entry pointer may be stale (insort
         * shifts or reallocs cur) — never touch e again. */
        err = fire_event(ev);
        Py_DECREF(ev);
        if (err < 0)
            break;
    }
    /* Python advances the clock to `until` only when the queue
     * drained (a max_events stop leaves the clock at the last
     * event). */
    if (err == 0 && drained && has_until && until > self->now)
        self->now = until;
    self->events_processed += fired;
    self->running = 0;
    if (err < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
calsim_run_before(CalSimObject *self, PyObject *arg)
{
    double bound = PyFloat_AsDouble(arg);
    if (bound == -1.0 && PyErr_Occurred())
        return NULL;
    if (self->running) {
        PyErr_SetString(SimulationError,
                        "Simulator.run_before() is not reentrant");
        return NULL;
    }
    self->running = 1;
    long long fired = 0;
    int err = 0;
    for (;;) {
        if (queue_refill(self) == 0)
            break;
        cur_trim(self);
        Entry *e = &self->cur[self->cur_pos];
        CEventObject *ev = (CEventObject *)e->ev;
        if (ev->cancelled) {
            self->cur_pos++;
            ev->popped = 1;
            self->cancelled_pending--;
            Py_DECREF(ev);
            continue;
        }
        if (e->time >= bound)
            break;
        self->cur_pos++;
        ev->popped = 1;
        self->now = e->time;
        fired++;
        err = fire_event(ev);
        Py_DECREF(ev);
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
calsim_step(CalSimObject *self, PyObject *Py_UNUSED(ignored))
{
    for (;;) {
        if (queue_refill(self) == 0)
            Py_RETURN_FALSE;
        cur_trim(self);
        Entry *e = &self->cur[self->cur_pos];
        CEventObject *ev = (CEventObject *)e->ev;
        self->cur_pos++;
        ev->popped = 1;
        if (ev->cancelled) {
            self->cancelled_pending--;
            Py_DECREF(ev);
            continue;
        }
        self->now = e->time;
        self->events_processed++;
        int err = fire_event(ev);
        Py_DECREF(ev);
        if (err < 0)
            return NULL;
        Py_RETURN_TRUE;
    }
}

static PyObject *
calsim_next_event_time(CalSimObject *self, PyObject *Py_UNUSED(ignored))
{
    for (;;) {
        if (queue_refill(self) == 0)
            return PyFloat_FromDouble(Py_HUGE_VAL);
        CEventObject *ev = (CEventObject *)self->cur[self->cur_pos].ev;
        if (ev->cancelled) {
            self->cur_pos++;
            ev->popped = 1;
            self->cancelled_pending--;
            Py_DECREF(ev);
            continue;
        }
        return PyFloat_FromDouble(self->cur[self->cur_pos].time);
    }
}

static PyObject *
calsim_note_cancel_py(CalSimObject *self, PyObject *Py_UNUSED(ignored))
{
    calsim_note_cancel(self);
    Py_RETURN_NONE;
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

static PyObject *
calsim_get_pending_active(CalSimObject *self, void *closure)
{
    return PyLong_FromLongLong(
        (long long)((self->cur_len - self->cur_pos) + self->top_len)
        - self->cancelled_pending);
}

static PyGetSetDef calsim_getset[] = {
    {"now", (getter)calsim_get_now, NULL,
     "Current simulated time in seconds.", NULL},
    {"_now", (getter)calsim_get_now, (setter)calsim_set_now, NULL, NULL},
    {"events_processed", (getter)calsim_get_events_processed, NULL,
     "Number of events fired since construction.", NULL},
    {"pending", (getter)calsim_get_pending, NULL,
     "Events still queued (including cancelled ones).", NULL},
    {"pending_active", (getter)calsim_get_pending_active, NULL,
     "Live (non-cancelled) events still queued.", NULL},
    {NULL}
};

static PyMethodDef calsim_methods[] = {
    {"schedule", (PyCFunction)calsim_schedule,
     METH_VARARGS | METH_KEYWORDS,
     "schedule(delay, fn, *args, priority=0, **kwargs) -> Event"},
    {"at", (PyCFunction)calsim_at, METH_VARARGS | METH_KEYWORDS,
     "at(time, fn, *args, priority=0, **kwargs) -> Event"},
    {"schedule_batch", (PyCFunction)calsim_schedule_batch,
     METH_VARARGS | METH_KEYWORDS,
     "schedule_batch(entries, priority=0) -> list[Event]"},
    {"run", (PyCFunction)calsim_run, METH_VARARGS | METH_KEYWORDS,
     "run(until=None, max_events=None)"},
    {"run_before", (PyCFunction)calsim_run_before, METH_O,
     "Fire every event with time < bound, strictly."},
    {"step", (PyCFunction)calsim_step, METH_NOARGS,
     "Fire the single next event; False if drained."},
    {"next_event_time", (PyCFunction)calsim_next_event_time, METH_NOARGS,
     "Time of the next live event, or inf."},
    {"_note_cancel", (PyCFunction)calsim_note_cancel_py, METH_NOARGS, NULL},
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
    if (PyType_Ready(&CEvent_Type) < 0 || PyType_Ready(&CalSim_Type) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&ceventq_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&CEvent_Type);
    PyModule_AddObject(m, "Event", (PyObject *)&CEvent_Type);
    Py_INCREF(&CalSim_Type);
    PyModule_AddObject(m, "CalendarSimCore", (PyObject *)&CalSim_Type);
    return m;
}
