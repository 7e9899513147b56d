// Sharded image encoding. The hot half of a checkpoint's CPU cost is
// serializing memory extents; those sections are independent byte spans
// of known size, so the encoder precomputes every span's offset in the
// final buffer, lets a worker pool encode spans in place concurrently,
// and folds the per-span CRCs in order with crc.Combine. The output is
// byte-identical to Encode — same layout, same trailer — so restore,
// corruption audits, and chain verification cannot tell the paths apart.

package checkpoint

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/crc"
)

// shardTargetBytes is the preferred payload size of one encoding shard:
// big enough that fork/join bookkeeping disappears in the noise, small
// enough that a handful of large VMAs still spread across the pool.
const shardTargetBytes = 256 << 10

// encPiece is one independently encodable byte span of the image body.
type encPiece struct {
	off, size int
	vma       int  // section index
	extLo     int  // first extent of the run
	extHi     int  // one past the last extent
	header    bool // the run is preceded by the section header
	crc       uint64
}

// vmaHeaderSize returns the encoded size of a section's fixed fields.
func vmaHeaderSize(v *VMASection) int {
	return 8 + 8 + 1 + (4 + len(v.Name)) + 1 + 4
}

// extentHeaderSize is the encoded size of an extent's address and
// length prefix.
const extentHeaderSize = 8 + 4

// extentSize returns the encoded size of one extent.
func extentSize(e *Extent) int { return extentHeaderSize + len(e.Data) }

// planPieces lays out every VMA section as one or more pieces starting
// at base, splitting long extent runs at shardTargetBytes boundaries.
func (img *Image) planPieces(base int) (pieces []encPiece, total int) {
	off := base
	for i := range img.VMAs {
		v := &img.VMAs[i]
		p := encPiece{off: off, size: vmaHeaderSize(v), vma: i, header: true}
		for j := range v.Extents {
			if p.size >= shardTargetBytes {
				p.extHi = j
				pieces = append(pieces, p)
				off += p.size
				p = encPiece{off: off, vma: i, extLo: j}
			}
			p.size += extentSize(&v.Extents[j])
		}
		p.extHi = len(v.Extents)
		pieces = append(pieces, p)
		off += p.size
	}
	return pieces, off - base
}

// encodePiece writes one piece into its span of buf and records its CRC.
func (img *Image) encodePiece(p *encPiece, buf []byte) (err error) {
	v := &img.VMAs[p.vma]
	p.crc, err = encodeSpan(buf[p.off:p.off+p.size], func(c *cw) {
		if p.header {
			encodeVMAHeader(c, v)
		}
		encodeExtents(c, v.Extents[p.extLo:p.extHi])
	})
	if err != nil {
		return fmt.Errorf("checkpoint: piece vma=%d [%d:%d): %w", p.vma, p.extLo, p.extHi, err)
	}
	return nil
}

// EncodeParallelBytes encodes the image with section payloads sharded
// across workers goroutines, returning the same bytes Encode would
// write. workers <= 1 encodes in one sequential pass. The first encode
// of an image captured without a target seals the capture's own layout
// buffer and returns it, so the image's extents alias the result: like
// the image, it is read-only. Every other encode, a decoded image's
// included, writes a fresh buffer; so does one whose extents no longer
// sit where the layout put them.
func (img *Image) EncodeParallelBytes(workers int) ([]byte, error) {
	buf := img.unsealed
	img.unsealed = nil
	if buf == nil || !img.laidOutIn(buf) {
		buf = make([]byte, encodedSize(img.encode))
	}
	if err := img.seal(buf, workers); err != nil {
		return nil, err
	}
	return buf, nil
}

// laidOutIn reports whether buf is exactly img's encoded size and every
// extent still sits in its slot of it, so sealing buf moves no extent.
func (img *Image) laidOutIn(buf []byte) bool {
	if len(buf) != encodedSize(img.encode) {
		return false
	}
	off := encodedSize(img.encodeHead)
	for i := range img.VMAs {
		off += vmaHeaderSize(&img.VMAs[i])
		for _, e := range img.VMAs[i].Extents {
			off += extentHeaderSize
			if len(e.Data) > 0 && &e.Data[0] != &buf[off] {
				return false
			}
			off += len(e.Data)
		}
	}
	return true
}

// seal writes img's encoding into buf, which must be exactly its
// encoded size. An extent whose Data already sits in its slot of buf (a
// layout buffer) is checksummed in place rather than copied. With
// workers <= 1 one pass writes and checksums the whole image; otherwise
// the head and tail are encoded sequentially, the sections as pieces
// across the pool, and the span CRCs are folded with crc.Combine.
func (img *Image) seal(buf []byte, workers int) error {
	if workers <= 1 {
		_, err := encodeSpan(buf, img.encode)
		return err
	}
	headSize := encodedSize(img.encodeHead)
	pieces, bodySize := img.planPieces(headSize)
	tailOff, tailSize := headSize+bodySize, encodedSize(img.encodeTail)
	total := tailOff + tailSize + 8
	if total != len(buf) {
		return fmt.Errorf("checkpoint: encode planned %d bytes into a %d-byte buffer", total, len(buf))
	}
	headCRC, err := encodeSpan(buf[:headSize], img.encodeHead)
	if err != nil {
		return err
	}
	tailCRC, err := encodeSpan(buf[tailOff:tailOff+tailSize], img.encodeTail)
	if err != nil {
		return err
	}

	if workers > len(pieces) && len(pieces) > 0 {
		workers = len(pieces)
	}
	var next int64 = -1
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(pieces) {
					return
				}
				if err := img.encodePiece(&pieces[i], buf); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Fold the span CRCs in layout order; the seed 0 is the CRC of the
	// empty prefix, so the head folds like any other span.
	sum := crc.Combine(0, headCRC, headSize)
	for i := range pieces {
		sum = crc.Combine(sum, pieces[i].crc, pieces[i].size)
	}
	sum = crc.Combine(sum, tailCRC, tailSize)
	binary.LittleEndian.PutUint64(buf[total-8:], sum)
	return nil
}
