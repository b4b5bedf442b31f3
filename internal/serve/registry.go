package serve

import (
	"net/http"
	"strconv"
)

// registry is the bounded, submission-ordered record of one resource
// kind — jobs or sweeps. Every method expects the caller to hold
// Server.mu.
type registry[T interface{ Status() Status }] struct {
	byID  map[string]T
	order []string // submission order, for bounded retention and paging
	max   int
}

func newRegistry[T interface{ Status() Status }](max int) *registry[T] {
	return &registry[T]{byID: make(map[string]T), max: max}
}

// add records v under id, then forgets the oldest terminal entries
// beyond the retention bound. Live entries are never dropped: the
// registry grows rather than lose their state.
func (r *registry[T]) add(id string, v T) {
	r.byID[id] = v
	r.order = append(r.order, id)
	for len(r.byID) > r.max {
		evicted := false
		for i, old := range r.order {
			if e, ok := r.byID[old]; ok && e.Status().Terminal() {
				delete(r.byID, old)
				r.order = append(r.order[:i], r.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
}

// listPage answers one page of GET /v1/jobs or GET /v1/sweeps:
// entries in submission order, optionally filtered with ?status=,
// resumed after the ID in ?cursor=, and bounded by ?limit= (default
// 100, max 1000). next is the cursor of the following page, empty on
// the last one.
func listPage[T interface{ Status() Status }](s *Server, r *http.Request, reg *registry[T]) (page []T, next string, err error) {
	q := r.URL.Query()
	var filter Status
	if v := q.Get("status"); v != "" {
		filter = Status(v)
		switch filter {
		case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled:
		default:
			return nil, "", errf(http.StatusBadRequest, "unknown status filter %q", v)
		}
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return nil, "", errf(http.StatusBadRequest, "bad limit %q", v)
		}
		limit = min(n, 1000)
	}
	cursor := q.Get("cursor")

	s.mu.Lock()
	defer s.mu.Unlock()
	start := 0
	if cursor != "" {
		found := false
		for i, id := range reg.order {
			if id == cursor {
				start, found = i+1, true
				break
			}
		}
		if !found {
			return nil, "", errf(http.StatusBadRequest, "unknown cursor %q", cursor)
		}
	}
	page = []T{}
	last := ""
	for _, id := range reg.order[start:] {
		v, ok := reg.byID[id]
		if !ok || (filter != "" && v.Status() != filter) {
			continue
		}
		if len(page) == limit {
			return page, last, nil
		}
		page, last = append(page, v), id
	}
	return page, "", nil
}
