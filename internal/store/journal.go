package store

// This file implements the record framing shared by the journal and the
// checkpoint file: length-prefixed JSON payloads guarded by CRC-32C.
// A frame is
//
//	uint32 LE payload length | uint32 LE CRC-32C(payload) | payload
//
// Reads distinguish a clean end (io.EOF exactly at a frame boundary)
// from a torn tail (a partial frame or a CRC mismatch — what a crash
// mid-append leaves behind). The journal reader treats a torn tail as
// the end of the log and truncates it; the checkpoint reader treats it
// as corruption, because checkpoints are published atomically via
// rename and can never be legitimately torn.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"datamarket/internal/pricing"
)

// frameHeaderSize is the length+CRC prefix.
const frameHeaderSize = 8

// maxFrameBytes bounds one record. A corrupt length prefix must not make
// the reader allocate gigabytes; 64 MB comfortably holds a MaxDim
// envelope (~21 MB of JSON).
const maxFrameBytes = 64 << 20

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks a partial or corrupt frame at the end of a log.
var errTorn = errors.New("store: torn frame")

// appendFrame appends the framed payload to buf and returns it.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// readFrame reads one frame. It returns io.EOF at a clean boundary and
// errTorn for a partial frame, an oversized length, or a CRC mismatch.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTorn
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxFrameBytes {
		return nil, errTorn
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTorn
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errTorn
	}
	return payload, nil
}

// Record operations.
const (
	opPut = "put"
	opDel = "delete"
	// opCheckpoint is the meta record opening a checkpoint file; its LSN
	// is the last journal sequence number the checkpoint includes, so
	// recovery can skip journal records the checkpoint already covers.
	opCheckpoint = "checkpoint"
)

// record is the wire form of one journal or checkpoint frame.
type record struct {
	// LSN is the global, monotonically increasing sequence number.
	LSN uint64            `json:"lsn"`
	Op  string            `json:"op"`
	ID  string            `json:"id,omitempty"`
	Env *pricing.Envelope `json:"env,omitempty"`
}

// encodeRecord frames a record.
func encodeRecord(rec *record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encoding record: %w", err)
	}
	if len(payload) > maxFrameBytes {
		return nil, fmt.Errorf("store: record of %d bytes exceeds frame limit %d", len(payload), maxFrameBytes)
	}
	return appendFrame(nil, payload), nil
}

// decodeRecord parses a frame payload.
func decodeRecord(payload []byte) (*record, error) {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("store: decoding record: %w", err)
	}
	switch rec.Op {
	case opPut, opDel, opCheckpoint:
	default:
		return nil, fmt.Errorf("store: unknown record op %q", rec.Op)
	}
	if rec.Op == opPut && rec.Env == nil {
		return nil, fmt.Errorf("store: put record %q carries no envelope", rec.ID)
	}
	if rec.Op != opCheckpoint && rec.ID == "" {
		return nil, fmt.Errorf("store: %s record missing stream id", rec.Op)
	}
	return &rec, nil
}
