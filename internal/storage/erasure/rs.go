package erasure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/crc"
)

// Codec errors.
var (
	ErrBadShard      = errors.New("erasure: not a valid shard")
	ErrInsufficient  = errors.New("erasure: fewer than k valid shards")
	ErrInconsistent  = errors.New("erasure: shards from different encodings")
	ErrBadParameters = errors.New("erasure: invalid k/m parameters")
)

// MaxShards bounds k+m: GF(256) Vandermonde rows must be distinct field
// elements, and shard indices are stored in one byte.
const MaxShards = 255

// Shard header: magic "RS", format version, shard index, k, m, original
// object length, and a CRC-32 (IEEE, from internal/crc) of the payload
// so a torn shard is detected and treated as missing rather than
// silently corrupting the decode.
const (
	shardMagic0  = 'R'
	shardMagic1  = 'S'
	shardVersion = 1
	headerLen    = 2 + 1 + 1 + 1 + 1 + 4 + 4
)

// Shard is one parsed shard: its position in the code, the code
// geometry, the original object length, and the payload bytes.
type Shard struct {
	Index   int
	K, M    int
	OrigLen int
	Payload []byte
}

// codingMatrix returns the n×k systematic generator matrix: the top k
// rows are the identity (data shards are plain slices of the object),
// the bottom m rows are the parity combinations. Built as V·inv(V_top)
// from an n×k Vandermonde V (rows are powers of distinct field
// elements), which keeps every k×k submatrix invertible at the shard
// counts this package is used at.
func codingMatrix(k, m int) matrix {
	n := k + m
	v := newMatrix(n, k)
	for r := 0; r < n; r++ {
		for c := 0; c < k; c++ {
			v[r][c] = gpow(byte(r), c)
		}
	}
	top := newMatrix(k, k)
	for r := 0; r < k; r++ {
		copy(top[r], v[r])
	}
	inv, err := top.invert()
	if err != nil {
		// Cannot happen: the top k rows form a Vandermonde matrix over
		// distinct elements, which is always invertible.
		panic("erasure: singular Vandermonde top")
	}
	return v.mul(inv)
}

// EncodeObject splits data into k equal data shards (zero-padded) plus m
// parity shards. Each returned shard is self-describing (header + CRC),
// so a reader holding an arbitrary subset can validate and decode.
//
// The shards are built in place: data is copied once into the data
// shards' payloads, each parity payload is written by one mulSum pass
// over those payloads, and each header (with its payload CRC) is
// written last. A data shard whose payload lies wholly inside data is
// allocated by bytes.Join, which skips the zero fill because every byte
// is copied in; the padded last data shard, whose padding must read
// zero, and the parity shards are allocated by make.
func EncodeObject(data []byte, k, m int) ([][]byte, error) {
	if k < 1 || m < 0 || k+m > MaxShards || k+m < 2 {
		return nil, fmt.Errorf("%w: k=%d m=%d", ErrBadParameters, k, m)
	}
	shardLen := (len(data) + k - 1) / k
	var hdr [headerLen]byte // placeholder until sealHeader
	shards := make([][]byte, k+m)
	for i := range shards {
		lo, hi := i*shardLen, (i+1)*shardLen
		if i < k && hi <= len(data) {
			shards[i] = bytes.Join([][]byte{hdr[:], data[lo:hi]}, nil)
			continue
		}
		b := make([]byte, headerLen+shardLen)
		if i < k && lo < len(data) {
			copy(b[headerLen:], data[lo:])
		}
		shards[i] = b
	}
	mat := codingMatrix(k, m)
	planes := make([][]byte, k)
	for c := range planes {
		planes[c] = shards[c][headerLen:]
	}
	for r := k; r < k+m; r++ {
		mulSum(shards[r][headerLen:], planes, mat[r])
	}
	for i, b := range shards {
		sealHeader(b, i, k, m, len(data))
	}
	return shards, nil
}

// ShardLen returns the stored blob length of one shard of an origLen-
// byte object cut k ways — header plus the zero-padded payload plane.
// Callers use it to judge, from a bare ObjectSize probe, whether a
// replica's shard belongs to the expected encoding.
func ShardLen(origLen, k int) int {
	if k < 1 {
		return 0
	}
	return headerLen + (origLen+k-1)/k
}

// sealHeader writes the header of blob b, whose payload is already in
// place after it.
func sealHeader(b []byte, idx, k, m, origLen int) {
	b[0], b[1], b[2] = shardMagic0, shardMagic1, shardVersion
	b[3], b[4], b[5] = byte(idx), byte(k), byte(m)
	binary.BigEndian.PutUint32(b[6:], uint32(origLen))
	binary.BigEndian.PutUint32(b[10:], crc.ChecksumIEEE(b[headerLen:]))
}

// ParseShard validates a shard blob. A short, mismagicked, or
// CRC-failing blob returns ErrBadShard — callers treat that shard as
// missing, which is what makes a torn replica write harmless.
func ParseShard(b []byte) (Shard, error) {
	s, err := parseHeader(b)
	if err != nil || !payloadIntact(b, s) {
		return Shard{}, ErrBadShard
	}
	return s, nil
}

// parseHeader is ParseShard without the payload CRC: it checks the
// magic, version and geometry, and that the payload length matches
// them.
func parseHeader(b []byte) (Shard, error) {
	if len(b) < headerLen || b[0] != shardMagic0 || b[1] != shardMagic1 || b[2] != shardVersion {
		return Shard{}, ErrBadShard
	}
	s := Shard{
		Index:   int(b[3]),
		K:       int(b[4]),
		M:       int(b[5]),
		OrigLen: int(binary.BigEndian.Uint32(b[6:])),
		Payload: b[headerLen:],
	}
	if s.K < 1 || s.K+s.M > MaxShards || s.Index >= s.K+s.M {
		return Shard{}, ErrBadShard
	}
	if want := (s.OrigLen + s.K - 1) / s.K; len(s.Payload) != want {
		return Shard{}, ErrBadShard
	}
	return s, nil
}

// payloadIntact reports whether blob b's payload s.Payload matches the
// CRC-32 in b's header.
func payloadIntact(b []byte, s Shard) bool {
	return crc.ChecksumIEEE(s.Payload) == binary.BigEndian.Uint32(b[10:])
}

// DecodeObject reconstructs the original object from any k valid shards
// of one encoding. Nil entries and blobs that fail ParseShard are
// treated as missing; extra valid shards beyond k are ignored. The
// shards may arrive in any order — each carries its own index.
func DecodeObject(blobs [][]byte) ([]byte, error) {
	got, err := gather(blobs)
	if err != nil {
		return nil, err
	}
	data, _, err := decode(got)
	return data, err
}

// gather parses blobs in order until it holds k distinct shards of one
// encoding, the strict DecodeObject contract: a valid shard from a
// different encoding is ErrInconsistent, fewer than k is ErrInsufficient.
func gather(blobs [][]byte) ([]Shard, error) {
	var got []Shard
	var seen [MaxShards]bool
	for _, b := range blobs {
		if b == nil {
			continue
		}
		s, err := ParseShard(b)
		if err != nil {
			continue
		}
		if len(got) > 0 {
			ref := got[0]
			if s.K != ref.K || s.M != ref.M || s.OrigLen != ref.OrigLen || len(s.Payload) != len(ref.Payload) {
				return nil, ErrInconsistent
			}
		}
		if seen[s.Index] {
			continue
		}
		seen[s.Index] = true
		got = append(got, s)
		if len(got) == s.K {
			break
		}
	}
	if len(got) == 0 {
		return nil, ErrInsufficient
	}
	if k := got[0].K; len(got) < k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrInsufficient, len(got), k)
	}
	return got, nil
}

// DecodeAny decodes in the presence of stale shards: when a same-named
// object was re-encoded (a chain fold republishing under the leaf's
// name) and the overwrite missed a replica, a gather mixes shards of two
// encodings and the strict DecodeObject refuses the lot. DecodeAny
// decodes the encoding BestGroup picks, from the first k distinct shards
// of it in blob order. Fails only when no group reaches its own k.
//
// BestGroup CRC-checks each blob at most once, and only the blobs its
// verdict depends on. solved reports whether a parity shard was among
// the k used, i.e. whether the decode needed a matrix solve rather than
// concatenating the data shards. The output is the joined form of
// DecodePlanes' planes, and never aliases a blob.
func DecodeAny(blobs [][]byte) (data []byte, solved bool, err error) {
	g, err := BestGroup(blobs)
	if err != nil {
		return nil, false, err
	}
	return decode(g.Shards)
}

// DecodePlanes decodes what DecodeAny does, from the same group with the
// same checks and the same solved verdict, but returns the object as its
// k data planes in order, without joining them: plane r is the part of
// bytes [r·shardLen, (r+1)·shardLen) that lies inside the original
// length, so a plane of pure padding is empty, and the planes
// concatenated are DecodeAny's output. Each plane's capacity is clipped
// to its length. A plane whose data shard was read is that shard's
// payload, shared with the blob: the blobs are a store's read-only
// slices, and the planes are read-only under the same contract as
// storage.Target.ReadObject's result. Only a missing plane is solved, into
// fresh memory; no other byte is copied.
func DecodePlanes(blobs [][]byte) (planes [][]byte, solved bool, err error) {
	g, err := BestGroup(blobs)
	if err != nil {
		return nil, false, err
	}
	s, err := newSystem(g.Shards)
	if err != nil {
		return nil, false, err
	}
	planes = make([][]byte, len(s.planes))
	for r, p := range s.planes {
		lo, hi := s.span(r)
		switch n := hi - lo; {
		case p != nil:
			planes[r] = p[:n:n]
		case n > 0:
			planes[r] = make([]byte, n)
			s.solve(planes[r], r)
		}
	}
	return planes, s.inv != nil, nil
}

// Group is one encoding among a gather's valid shards: the header
// triple that identifies it, and the first K of its distinct shards in
// blob order, the ones a decode uses.
type Group struct {
	K, M, OrigLen int
	Shards        []Shard
}

// BestGroup returns the encoding DecodeAny decodes among the blobs'
// valid shards: most distinct shard indices first, ties broken toward
// the larger original length (re-encodes under one name only ever fold
// deltas into fuller images), then the larger geometry, all
// deterministic. It fails with ErrInsufficient unless that group holds
// at least its own k distinct shards, so a nil error means the object
// decodes, to OrigLen bytes.
//
// It parses every header first. When every header that parses names
// one encoding, the usual case, the verdict needs no more than the
// first k distinct shards that pass their CRC-32, so blobs are checked
// in order until k have, and the rest (on a healthy read, the parity
// shards) are never checksummed. A gather whose headers name more than
// one encoding is CRC-checked whole, since a torn shard must not count
// toward its group's size.
func BestGroup(blobs [][]byte) (Group, error) {
	var first Shard
	found, mixed := false, false
	for _, b := range blobs {
		if b == nil {
			continue
		}
		s, err := parseHeader(b)
		if err != nil {
			continue
		}
		if !found {
			first, found = s, true
		} else if s.K != first.K || s.M != first.M || s.OrigLen != first.OrigLen {
			mixed = true
			break
		}
	}
	switch {
	case !found:
		return Group{}, ErrInsufficient
	case mixed:
		return bestOfMixed(blobs)
	}
	g := Group{K: first.K, M: first.M, OrigLen: first.OrigLen, Shards: make([]Shard, 0, first.K)}
	var seen [MaxShards]bool
	for _, b := range blobs {
		if len(g.Shards) == g.K {
			break
		}
		if b == nil {
			continue
		}
		s, err := parseHeader(b)
		if err != nil || seen[s.Index] || !payloadIntact(b, s) {
			continue
		}
		seen[s.Index] = true
		g.Shards = append(g.Shards, s)
	}
	switch have := len(g.Shards); {
	case have == 0:
		return Group{}, ErrInsufficient
	case have < g.K:
		return Group{}, fmt.Errorf("%w: have %d, need %d", ErrInsufficient, have, g.K)
	}
	return g, nil
}

// bestOfMixed is BestGroup over a gather whose headers name more than
// one encoding: every blob is parsed and CRC-checked once, the valid
// shards are partitioned into encoding groups by header, and the best
// group is chosen by BestGroup's order.
func bestOfMixed(blobs [][]byte) (Group, error) {
	type group struct {
		Group
		seen [MaxShards]bool
	}
	var groups []*group // first-seen order; a gather rarely holds more than two
	for _, b := range blobs {
		if b == nil {
			continue
		}
		s, perr := ParseShard(b)
		if perr != nil {
			continue
		}
		// ParseShard pins the payload length to (k, origLen), so the
		// header triple identifies an encoding.
		var g *group
		for _, cand := range groups {
			if cand.K == s.K && cand.M == s.M && cand.OrigLen == s.OrigLen {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{Group: Group{K: s.K, M: s.M, OrigLen: s.OrigLen}}
			groups = append(groups, g)
		}
		if g.seen[s.Index] {
			continue
		}
		g.seen[s.Index] = true
		g.Shards = append(g.Shards, s)
	}
	better := func(a, b *group) bool {
		ad, bd := len(a.Shards) >= a.K, len(b.Shards) >= b.K
		switch {
		case ad != bd:
			return ad // a decodable group always beats an undecodable one
		case len(a.Shards) != len(b.Shards):
			return len(a.Shards) > len(b.Shards)
		case a.OrigLen != b.OrigLen:
			return a.OrigLen > b.OrigLen
		case a.K != b.K:
			return a.K > b.K
		}
		return a.M > b.M
	}
	var best *group
	for _, g := range groups {
		if best == nil || better(g, best) {
			best = g
		}
	}
	if best == nil {
		return Group{}, ErrInsufficient
	}
	if have, k := len(best.Shards), best.K; have < k {
		return Group{}, fmt.Errorf("%w: have %d, need %d", ErrInsufficient, have, k)
	}
	best.Shards = best.Shards[:best.K]
	return best.Group, nil
}

// ReconstructShards returns a full, freshly sealed shard set from any k
// valid shards — the repair path when a replica holding one shard is
// lost. The decode solves for the data planes, then re-encodes.
func ReconstructShards(blobs [][]byte) ([][]byte, error) {
	got, err := gather(blobs)
	if err != nil {
		return nil, err
	}
	data, _, err := decode(got)
	if err != nil {
		return nil, err
	}
	return EncodeObject(data, got[0].K, got[0].M)
}

// system is the decode step DecodePlanes and decode share: the first k
// of a gather's shards, which must be distinct, parsed shards of one
// encoding, each data plane among them, and, when a data plane is
// missing, the inverse of the k×k system of generator-matrix rows the
// shards correspond to.
type system struct {
	use               []Shard
	srcs              [][]byte // the payloads in use, when a plane is solved
	planes            [][]byte // data shard r's payload when it is in use, else nil
	inv               matrix   // nil when every data plane is in use
	origLen, planeLen int
}

func newSystem(shards []Shard) (system, error) {
	k := shards[0].K
	s := system{use: shards[:k], planes: make([][]byte, k), origLen: shards[0].OrigLen, planeLen: len(shards[0].Payload)}
	solved := false
	for _, sh := range s.use {
		if sh.Index < k {
			s.planes[sh.Index] = sh.Payload
		} else {
			solved = true
		}
	}
	if !solved {
		return s, nil
	}
	full := codingMatrix(k, shards[0].M)
	sub := newMatrix(k, k)
	for r, sh := range s.use {
		copy(sub[r], full[sh.Index])
	}
	inv, err := sub.invert()
	if err != nil {
		return system{}, fmt.Errorf("erasure: unsolvable shard set: %w", err)
	}
	s.inv = inv
	s.srcs = make([][]byte, k)
	for c, sh := range s.use {
		s.srcs[c] = sh.Payload
	}
	return s, nil
}

// span returns the object byte range [lo, hi) data plane r holds: empty
// once the plane is all padding.
func (s *system) span(r int) (lo, hi int) {
	lo = min(r*s.planeLen, s.origLen)
	return lo, min(lo+s.planeLen, s.origLen)
}

// solve writes missing data plane r's first len(dst) bytes into dst in
// one pass: row r of the inverse applied to the payloads in use.
func (s *system) solve(dst []byte, r int) {
	mulSum(dst, s.srcs, s.inv[r])
}

// decode recovers the object from the first k of shards, joined into
// one fresh allocation. When they are the k data shards, the output is
// their payloads joined, clipped to the original length, without a zero
// fill. Otherwise data shards among them are copied straight into the
// output and only the missing data planes are solved, each written by
// one mulSum pass into its place in the output. solved reports whether
// any plane needed the solve. The output is never a payload: callers
// may hold shared read-only blobs.
func decode(shards []Shard) (data []byte, solved bool, err error) {
	s, err := newSystem(shards)
	if err != nil {
		return nil, false, err
	}
	if s.inv == nil {
		parts := make([][]byte, 0, len(s.planes))
		for r, p := range s.planes {
			if lo, hi := s.span(r); lo < hi {
				parts = append(parts, p[:hi-lo])
			}
		}
		return bytes.Join(parts, nil), false, nil
	}
	out := make([]byte, s.origLen)
	for r, p := range s.planes {
		lo, hi := s.span(r)
		if lo == hi {
			break // the rest of the planes are all padding
		}
		if p != nil {
			copy(out[lo:hi], p)
		} else {
			s.solve(out[lo:hi], r)
		}
	}
	return out, true, nil
}

// --- dense GF(256) matrices ---

type matrix [][]byte

func newMatrix(rows, cols int) matrix {
	m := make(matrix, rows)
	for i := range m {
		m[i] = make([]byte, cols)
	}
	return m
}

func (a matrix) mul(b matrix) matrix {
	out := newMatrix(len(a), len(b[0]))
	for r := range a {
		for c := range b[0] {
			var acc byte
			for i := range b {
				acc ^= gmul(a[r][i], b[i][c])
			}
			out[r][c] = acc
		}
	}
	return out
}

// invert returns the inverse via Gauss–Jordan elimination with partial
// pivoting (any nonzero pivot works in a field).
func (a matrix) invert() (matrix, error) {
	n := len(a)
	work := newMatrix(n, 2*n)
	for r := 0; r < n; r++ {
		copy(work[r], a[r])
		work[r][n+r] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, errors.New("erasure: singular matrix")
		}
		work[col], work[pivot] = work[pivot], work[col]
		if inv := ginv(work[col][col]); inv != 1 {
			for c := 0; c < 2*n; c++ {
				work[col][c] = gmul(work[col][c], inv)
			}
		}
		for r := 0; r < n; r++ {
			if r == col || work[r][col] == 0 {
				continue
			}
			coef := work[r][col]
			for c := 0; c < 2*n; c++ {
				work[r][c] ^= gmul(coef, work[col][c])
			}
		}
	}
	out := newMatrix(n, n)
	for r := 0; r < n; r++ {
		copy(out[r], work[r][n:])
	}
	return out, nil
}
