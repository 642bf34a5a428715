package streamfs

import "errors"

// errStopRange terminates a ReadRange iteration once a cap is hit.
var errStopRange = errors.New("streamfs: stop range")

// ReadRange reads up to maxRecords consecutive records starting at
// from, stopping early once the accumulated payload bytes reach
// maxBytes (maxBytes <= 0 means unbounded). It is the segment-reader
// seam for replication pulls: the server answers an offset-addressed
// pull by slicing a stream with one call, and the caps bound a frame
// to what one response can carry.
//
// Returned slices are owned by the caller. from below Base yields
// ErrNotFound (the caller sees a purge gap and must re-base); from at
// the stream end yields an empty, nil-error result.
func ReadRange(s Stream, from uint64, maxRecords, maxBytes int) ([][]byte, error) {
	if maxRecords <= 0 {
		return nil, nil
	}
	var (
		out   [][]byte
		total int
	)
	err := s.Iterate(from, func(seq uint64, rec []byte) error {
		// Iterate hands a view valid only during the call (the disk
		// backend's chunk buffer); copy so the result outlives it.
		cp := make([]byte, len(rec))
		copy(cp, rec)
		out = append(out, cp)
		total += len(cp)
		if len(out) >= maxRecords || (maxBytes > 0 && total >= maxBytes) {
			return errStopRange
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopRange) {
		return nil, err
	}
	return out, nil
}
