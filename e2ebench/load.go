package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/serve"
)

// status is the outcome class of one sent op.
type status int

const (
	statusOK    status = iota // answered and matched the reference
	statusShed                // refused with a structured 429
	statusError               // transport failure or any other non-2xx
	statusWrong               // answered, but differs from the reference
)

// outcome is what one op did. Latency runs from the op's intended send
// time (open loop) or its actual send (closed loop) to completion; service
// always runs from the actual send; lateness is how far behind schedule
// the generator sent it.
type outcome struct {
	status   status
	latency  time.Duration
	service  time.Duration
	lateness time.Duration
	err      error
}

// sender posts prebuilt request bodies to one base URL and checks each
// answer against its template's reference.
type sender struct {
	client *http.Client
	base   string
	query  string // "?trace=1" on traced runs
}

func (s *sender) send(ctx context.Context, t *template, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+t.path+s.query, bytes.NewReader(t.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.RequestIDHeader, id)
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		// Drain what a failed check left unread so the connection is reused.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return serve.DecodeAPIError(resp)
	}
	return checkResponse(t, resp.Body)
}

// classify maps a send error onto its outcome class.
func classify(err error) status {
	var apiErr *serve.APIError
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, errWrong):
		return statusWrong
	case errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests:
		return statusShed
	default:
		return statusError
	}
}

// closedLoop sends ops 0..n-1 from `workers` clients, each sending its
// next op only after its previous one completed, and returns the outcomes
// and the phase's wall time.
func closedLoop(ctx context.Context, n, workers int, send func(ctx context.Context, i int) error) ([]outcome, time.Duration) {
	outs := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				err := send(ctx, i)
				d := time.Since(t0)
				outs[i] = outcome{status: classify(err), latency: d, service: d, err: err}
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// openLoop sends op i at offset at[i] from the phase start regardless of
// how earlier ops fare, with at most maxOutstanding ops in flight. Time an
// op spends waiting for an outstanding slot counts as lateness and as
// latency, never hidden: latency is timed from the intended send.
func openLoop(ctx context.Context, at []time.Duration, maxOutstanding int, send func(ctx context.Context, i int) error) ([]outcome, time.Duration) {
	outs := make([]outcome, len(at))
	slots := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	dispatched := 0
dispatch:
	for i, off := range at {
		intended := start.Add(off)
		if wait := time.Until(intended); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			break dispatch
		}
		dispatched++
		wg.Add(1)
		go func(i int, intended time.Time) {
			defer wg.Done()
			defer func() { <-slots }()
			sent := time.Now()
			err := send(ctx, i)
			done := time.Now()
			outs[i] = outcome{
				status:   classify(err),
				latency:  done.Sub(intended),
				service:  done.Sub(sent),
				lateness: sent.Sub(intended),
				err:      err,
			}
		}(i, intended)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := dispatched; i < len(outs); i++ {
		outs[i] = outcome{status: statusError, err: context.Canceled} // cancelled before its turn
	}
	return outs, elapsed
}

// counts is one phase's failure accounting.
type counts struct {
	sent, ok, shed, errors, wrong int
}

func (c counts) failed() int { return c.shed + c.errors + c.wrong }

func tally(outs []outcome) counts {
	c := counts{sent: len(outs)}
	for _, o := range outs {
		switch o.status {
		case statusOK:
			c.ok++
		case statusShed:
			c.shed++
		case statusError:
			c.errors++
		case statusWrong:
			c.wrong++
		}
	}
	return c
}

// firstError returns the first failed op's error, for the report.
func firstError(phases ...[]outcome) error {
	for _, outs := range phases {
		for _, o := range outs {
			if o.err != nil {
				return o.err
			}
		}
	}
	return nil
}
