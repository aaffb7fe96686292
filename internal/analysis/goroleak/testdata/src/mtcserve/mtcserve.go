// Package mtcserve seeds goroleak violations and the join protocols
// the analyzer must recognize, shaped after the real server's janitor
// and worker-pool lifecycles.
package mtcserve

import "sync"

type Server struct {
	queue       chan int
	janitorStop chan struct{}
	janitorDone chan struct{}
	wg          sync.WaitGroup
}

// Signal protocol: the goroutine closes s.janitorDone and Close
// receives it (through a local alias, the real server's shape).
func (s *Server) startJanitor() {
	go func() {
		defer close(s.janitorDone)
		<-s.janitorStop
	}()
}

// Consume protocol: workers drain s.queue, which Close closes.
func (s *Server) startWorkers(n int) {
	for i := 0; i < n; i++ {
		go func() {
			for j := range s.queue {
				_ = j
			}
		}()
	}
}

// Method spawn: go s.pump() is analyzed through pump's own body, which
// Done()s the WaitGroup that Close Waits on.
func (s *Server) startPump() {
	s.wg.Add(1)
	go s.pump()
}

func (s *Server) pump() {
	defer s.wg.Done()
	for j := range s.janitorStop {
		_ = j
	}
}

func (s *Server) Close() {
	close(s.janitorStop)
	done := s.janitorDone
	<-done
	close(s.queue)
	s.wg.Wait()
}

// The leak: nothing ever joins this goroutine — no field protocol, no
// same-function join.
func (s *Server) leakLogger(events chan string) {
	go func() { // want `goroutine in long-lived package has no visible join`
		for e := range events {
			_ = e
		}
	}()
}

// Same-function join: spawn-and-Wait inside one call (the shard-driver
// shape).
func fanOut(items []int, f func(int)) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			f(v)
		}(it)
	}
	wg.Wait()
}

// Unjoined plain function spawn: flagged.
func spawnLoose(f func()) {
	go f() // want `goroutine in long-lived package has no visible join`
}

// The annotation asserts a join the analyzer cannot see.
func (s *Server) fireAndForget(f func()) {
	//mtc:goroutine-joined joined by the process-exit barrier in main
	go f()
}
