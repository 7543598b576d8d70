// CRC-32C length-prefixed framing, shared by the WAL segments, the
// compaction snapshots, and the collector's binary wire mode. One
// format, one decoder, one set of corruption semantics: a frame is
//
//	uint32 payload length | uint32 CRC-32C of payload | payload
//
// (little endian). DecodeSegment in wal.go scans a whole in-memory
// segment; the helpers here frame a single payload into a byte slice
// and read a single frame off a stream, which is what the collector's
// binary protocol and the snapshot writer need.
package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// AppendFrame appends one framed payload to dst and returns the
// extended slice. The header and payload land contiguously, so writing
// the result with a single Write preserves the at-most-one-torn-frame
// crash property.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ReadFrame reads one frame from r and returns its payload, a fresh
// slice the caller owns. io.EOF on a clean frame boundary is returned
// verbatim; an EOF inside a frame is ErrTornFrame; an implausible
// length header is ErrFrameSize; a CRC mismatch is ErrChecksum.
// maxFrame <= 0 selects the default bound.
// Other transport errors (deadlines, closed connections) pass through
// unwrapped so callers can inspect them.
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = defaultMaxFrame
	}
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTornFrame
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if n > maxFrame {
		return nil, ErrFrameSize
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTornFrame
		}
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrChecksum
	}
	return payload, nil
}
