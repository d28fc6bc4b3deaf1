package bench

import (
	"encoding/json"
	"io"
	"runtime"

	"maacs/internal/pairing"
)

// Header is the context every BENCH_*.json report records: the GOMAXPROCS
// the numbers were measured at and the pairing parameter sizes they were
// measured on. Report types embed it, so its fields sit at the top level of
// each file.
type Header struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	RBits      int `json:"r_bits"`
	QBits      int `json:"q_bits"`
}

// newHeader records the current GOMAXPROCS and the sizes of params.
func newHeader(params *pairing.Params) Header {
	return Header{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		RBits:      params.R.BitLen(),
		QBits:      params.Q.BitLen(),
	}
}

// WriteJSON writes a report as indented JSON, the form of every committed
// BENCH_*.json.
func WriteJSON(w io.Writer, report any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
