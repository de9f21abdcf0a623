package tcptransport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// handshakeBytes is the dialer's handshake as handshake writes it, with
// every field free so a test can get any one of them wrong.
func handshakeBytes(ringID string, rank uint32, gen uint64, m uint32) []byte {
	id := []byte(ringID)
	hs := binary.LittleEndian.AppendUint32(nil, m)
	hs = append(hs, version)
	hs = binary.LittleEndian.AppendUint16(hs, uint16(len(id)))
	hs = append(hs, id...)
	hs = binary.LittleEndian.AppendUint32(hs, rank)
	return binary.LittleEndian.AppendUint64(hs, gen)
}

// wantAccept parses data the way the wire format defines a handshake and
// reports whether rank 1 of a 3-rank ring named ringID, whose last accepted
// generation is lastGen, must accept it, and the generation it carries.
func wantAccept(data []byte, ringID string, lastGen uint64) (bool, uint64) {
	if len(data) < 7 || binary.LittleEndian.Uint32(data) != magic || data[4] != version {
		return false, 0
	}
	idLen := int(binary.LittleEndian.Uint16(data[5:7]))
	rest := data[7:]
	if len(rest) < idLen+12 || string(rest[:idLen]) != ringID {
		return false, 0
	}
	rank := binary.LittleEndian.Uint32(rest[idLen:])
	gen := binary.LittleEndian.Uint64(rest[idLen+4:])
	return rank == 0 && gen > lastGen, gen
}

// FuzzAcceptHandshake feeds arbitrary bytes to the acceptor's handshake
// check over net.Pipe.  It must never panic, and it must accept — answer
// verdict 1 and return the sender's generation — exactly the well-formed
// handshakes from the right ring and the predecessor rank with a
// generation newer than the last accepted one; everything else is refused
// without verdict 1.
func FuzzAcceptHandshake(f *testing.F) {
	const ring = "fuzz-ring"
	f.Add(handshakeBytes(ring, 0, 5, magic), uint64(4))
	f.Add(handshakeBytes(ring, 0, 5, magic), uint64(5)) // stale generation
	f.Add(handshakeBytes(ring, 2, 5, magic), uint64(0)) // the successor, not the predecessor
	f.Add(handshakeBytes("other-ring", 0, 5, magic), uint64(0))
	f.Add(handshakeBytes(ring, 0, 5, 0xdeadbeef), uint64(0))
	f.Add(handshakeBytes(ring, 0, 5, magic)[:20], uint64(0)) // torn mid-rank
	f.Add(append(handshakeBytes(ring, 0, 1, magic), frameHeartbeat), uint64(0))
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, lastGen uint64) {
		e := &Endpoint{rank: 1, size: 3, opts: Options{RingID: ring, PeerTimeout: time.Second}.withDefaults()}
		client, server := net.Pipe()
		defer client.Close()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			// Write returns once the acceptor has read every byte; a
			// handshake that wants more then reads end of stream.
			if _, err := client.Write(data); err == nil {
				server.SetReadDeadline(time.Now())
			}
		}()
		verdict := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(client)
			verdict <- b
		}()
		gen, err := e.acceptHandshake(server, lastGen)
		server.Close() // ends both goroutines
		<-wrote
		got := <-verdict

		want, wantGen := wantAccept(data, ring, lastGen)
		if (err == nil) != want {
			t.Fatalf("accepted = %v (err %v), want %v", err == nil, err, want)
		}
		if want && (gen != wantGen || !bytes.Equal(got, []byte{1})) {
			t.Fatalf("accepted generation %d with verdict %v, want %d with [1]", gen, got, wantGen)
		}
		if !want && bytes.Contains(got, []byte{1}) {
			t.Fatalf("refused handshake answered verdict %v", got)
		}
	})
}
