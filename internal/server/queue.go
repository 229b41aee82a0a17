package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"macrochip/internal/harness"
)

// Job states, in lifecycle order. A job that is still in the queue when the
// daemon drains is aborted rather than run, bounding shutdown time to the
// in-flight simulations.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	StatusAborted = "aborted"
)

// Terminal reports whether a status will never change again.
func Terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusAborted
}

var (
	// ErrQueueFull is returned by Submit when the bounded queue has no slot;
	// clients should back off and retry.
	ErrQueueFull = errors.New("experiment queue full")
	// ErrDraining is returned by Submit once a graceful shutdown began.
	ErrDraining = errors.New("server draining, not accepting new experiments")
)

// job is one submitted experiment. All mutable fields are guarded by the
// queue mutex; done closes exactly once, when the status turns terminal.
type job struct {
	seq      int
	cfg      ExperimentConfig
	status   string
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	res      *result // set when the job is done
	done     chan struct{}
}

// jobID is the public name of the seq-th submission.
func jobID(seq int) string { return fmt.Sprintf("exp-%06d", seq) }

// JobView is the JSON shape of one job's status, the payload of
// GET /v1/experiments/{id} and of every NDJSON progress line.
type JobView struct {
	ID       string           `json:"id"`
	Config   ExperimentConfig `json:"config"`
	Status   string           `json:"status"`
	Error    string           `json:"error,omitempty"`
	Created  time.Time        `json:"created"`
	Started  *time.Time       `json:"started,omitempty"`
	Finished *time.Time       `json:"finished,omitempty"`
}

func (j *job) viewLocked() JobView {
	return JobView{
		ID:       jobID(j.seq),
		Config:   j.cfg,
		Status:   j.status,
		Error:    j.errMsg,
		Created:  j.created,
		Started:  timeOrNil(j.started),
		Finished: timeOrNil(j.finished),
	}
}

// timeOrNil is nil for the zero time, so JSON omits a stage not reached.
func timeOrNil(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}

// Queue is the bounded experiment queue plus its worker pool. Submissions
// are non-blocking: a full queue rejects immediately (the HTTP layer maps
// that to 503 + Retry-After) rather than holding request goroutines. All
// workers execute on one shared harness.Runner, so concurrent identical
// experiments rendezvous in Runner.Cache's single-flight layer and the
// simulation runs once.
//
// The job table is bounded too: it keeps every queued and running job and
// the newest keep (4 × depth) terminal ones, evicting the oldest terminal
// job first.
type Queue struct {
	runner harness.Runner
	// run executes one job: ExperimentConfig.run, or a substitute in tests.
	run  func(ExperimentConfig, harness.Runner) (*result, error)
	log  *slog.Logger
	now  func() time.Time
	keep int

	pending chan *job
	stop    chan struct{}
	wg      sync.WaitGroup

	mu sync.Mutex
	// jobs holds the retained jobs by sequence number; finished lists the
	// retained terminal ones, oldest first.
	jobs     map[int]*job
	finished []int
	seq      int
	draining bool
}

// newQueue starts workers on a queue of the given depth. It keeps four
// terminal jobs per queue slot: a client that fetches its result soon
// after the job ends finds it, while memory stays bounded by the depth.
func newQueue(runner harness.Runner, depth, workers int, log *slog.Logger, now func() time.Time) *Queue {
	q := &Queue{
		runner:  runner,
		run:     ExperimentConfig.run,
		log:     log,
		now:     now,
		keep:    4 * depth,
		pending: make(chan *job, depth),
		stop:    make(chan struct{}),
		jobs:    map[int]*job{},
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit enqueues one normalized config, returning the queued job's view.
func (q *Queue) Submit(cfg ExperimentConfig) (JobView, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return JobView{}, ErrDraining
	}
	j := &job{
		seq:     q.seq + 1,
		cfg:     cfg,
		status:  StatusQueued,
		created: q.now(),
		done:    make(chan struct{}),
	}
	select {
	case q.pending <- j:
	default:
		return JobView{}, ErrQueueFull
	}
	q.seq = j.seq
	q.jobs[j.seq] = j
	return j.viewLocked(), nil
}

// lookup finds the job named id. gone reports an id the queue issued and
// has since evicted; an id it never issued is neither found nor gone.
func (q *Queue) lookup(id string) (j *job, gone bool) {
	seq, err := strconv.Atoi(strings.TrimPrefix(id, "exp-"))
	if err != nil || jobID(seq) != id {
		return nil, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	j = q.jobs[seq]
	return j, j == nil && seq >= 1 && seq <= q.seq
}

// view returns j's status and, once it is done, its result.
func (q *Queue) view(j *job) (JobView, *result) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return j.viewLocked(), j.res
}

// List returns every retained job's status in submission order.
func (q *Queue) List() []JobView {
	q.mu.Lock()
	defer q.mu.Unlock()
	jobs := make([]*job, 0, len(q.jobs))
	for _, j := range q.jobs {
		jobs = append(jobs, j)
	}
	slices.SortFunc(jobs, func(a, b *job) int { return a.seq - b.seq })
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.viewLocked()
	}
	return views
}

// Counts reports the retained jobs by state for /healthz.
func (q *Queue) Counts() (queued, running, finished int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.jobs {
		switch {
		case j.status == StatusQueued:
			queued++
		case j.status == StatusRunning:
			running++
		default:
			finished++
		}
	}
	return
}

// finishLocked moves j to a terminal status, wakes its waiters and evicts
// the oldest terminal jobs past the bound. The caller holds q.mu.
func (q *Queue) finishLocked(j *job, status, errMsg string) {
	j.status, j.errMsg, j.finished = status, errMsg, q.now()
	close(j.done)
	q.finished = append(q.finished, j.seq)
	for len(q.finished) > q.keep {
		delete(q.jobs, q.finished[0])
		q.finished = q.finished[1:]
	}
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		// Prefer stopping: after the drain signal, queued jobs are aborted
		// by Drain rather than started here.
		select {
		case <-q.stop:
			return
		default:
		}
		select {
		case <-q.stop:
			return
		case j := <-q.pending:
			q.execute(j)
		}
	}
}

// execute runs one job, converting panics (including propagated expcache
// compute panics) into a failed job instead of a dead daemon.
func (q *Queue) execute(j *job) {
	q.mu.Lock()
	j.status = StatusRunning
	j.started = q.now()
	q.mu.Unlock()

	res, err := func() (res *result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("experiment panicked: %v", r)
			}
		}()
		return q.run(j.cfg, q.runner)
	}()

	q.mu.Lock()
	if err != nil {
		q.finishLocked(j, StatusFailed, err.Error())
	} else {
		j.res = res
		q.finishLocked(j, StatusDone, "")
	}
	elapsed := j.finished.Sub(j.started)
	status := j.status
	q.mu.Unlock()
	q.log.Info("experiment finished",
		"id", jobID(j.seq), "kind", j.cfg.Kind, "status", status,
		"elapsed_ms", elapsed.Milliseconds())
}

// Drain performs the graceful-shutdown handshake: reject new submissions,
// let in-flight simulations finish, then abort jobs still sitting in the
// queue. It returns ctx.Err() if the in-flight work outlives the context.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	alreadyDraining := q.draining
	q.draining = true
	q.mu.Unlock()
	if !alreadyDraining {
		close(q.stop)
	}

	workersIdle := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(workersIdle)
	}()
	var err error
	select {
	case <-workersIdle:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Whatever never started is aborted; waiters on its done channel wake.
	// Each queued job leaves the channel once, to a worker or to this loop,
	// and Submit adds none once draining is set.
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		select {
		case j := <-q.pending:
			q.finishLocked(j, StatusAborted, "server shut down before the experiment started")
		default:
			return err
		}
	}
}

// Draining reports whether a drain has begun.
func (q *Queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}
