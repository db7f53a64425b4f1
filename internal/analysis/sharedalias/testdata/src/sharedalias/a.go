// Fixture for the sharedalias analyzer: writes to a buffer after it was
// relinquished to SendShared, SendHalo, SendBeat or SendFrame, or viewed as
// wire bytes by serial.Raw.
package sharedfixture

import "triolet/internal/serial"

// conn stands in for transport.Endpoint / mpi.Comm: the contract is
// carried by the relinquishing method names, wherever they are defined.
type conn struct{}

func (conn) SendShared(dst, tag int, payload []byte) error { return nil }
func (conn) SendHalo(dst, tag int, payload []byte) error   { return nil }
func (conn) SendBeat(dst, tag int, payload []byte) error   { return nil }
func (conn) SendFrame(dst, tag int, frame []byte) error    { return nil }
func (conn) Send(dst, tag int, payload []byte) error       { return nil }

func writeAfterSend(c conn, buf []byte) {
	_ = c.SendShared(1, 0, buf)
	buf[0] = 1 // want `sharedalias: "buf" is written after being relinquished to SendShared`
}

func writeAfterHalo(c conn, buf []byte) {
	_ = c.SendHalo(1, 0, buf)
	buf[0] = 1 // want `sharedalias: "buf" is written after being relinquished to SendHalo`
}

func writeAfterBeat(c conn, buf []byte) {
	_ = c.SendBeat(1, 0, buf)
	buf[0] = 1 // want `sharedalias: "buf" is written after being relinquished to SendBeat`
}

// A frame's body is relinquished with the room in front of it.
func writeAfterFrame(c conn, frame []byte) {
	_ = c.SendFrame(1, 0, frame)
	body := frame[25:]
	body[0] = 1 // want `sharedalias: "body" is written after being relinquished to SendFrame`
}

func writeAfterRaw(xs []float64) []byte {
	b := serial.Raw(xs)
	xs[0] = 2 // want `sharedalias: "xs" is written after being relinquished to serial\.Raw`
	return b
}

func aliasedWrites(c conn, buf []byte) {
	_ = c.SendShared(1, 0, buf)
	tail := buf[2:]
	tail[0] = 9          // want `sharedalias: "tail" is written after being relinquished to SendShared`
	buf = append(buf, 1) // want `sharedalias: "buf" is written after`
	copy(buf, tail)      // want `sharedalias: "buf" is written after`
}

// Writes sequenced before the send are the normal fill-then-ship pattern.
func writeBeforeSendOK(c conn, buf []byte) {
	buf[0] = 1
	copy(buf[1:], buf[:1])
	_ = c.SendShared(1, 0, buf)
}

// A copying Send relinquishes nothing.
func plainSendOK(c conn, buf []byte) {
	_ = c.Send(1, 0, buf)
	buf[0] = 1
}

// Rebinding the variable to a fresh allocation is safe: the relinquished
// backing array is untouched. (A later write through the rebound variable
// is a known flow-insensitive false positive; carry an allow.)
func rebindOK(c conn, buf []byte) []byte {
	_ = c.SendShared(1, 0, buf)
	buf = make([]byte, 4)
	buf[0] = 1 //lint:allow sharedalias buf was rebound to a fresh allocation on the previous line
	return buf
}
