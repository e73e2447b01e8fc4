package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Wire shapes for request traces. The encoding is the contract of the
// wdmserve `tracejson` verb and the /debug/requests endpoint, so it is
// round-trip stable: EncodeReqTrace(DecodeReqTrace(b)) reproduces b
// byte for byte for every b EncodeReqTrace can emit (FuzzSpanEncode
// pins this). Attributes carry their type in which payload field is
// present ("i"/"s"/"b"/"f"); pointer fields distinguish an absent
// payload from a zero one, so false booleans and zero integers
// round-trip.

type wireAttr struct {
	K string   `json:"k"`
	I *int64   `json:"i,omitempty"`
	S *string  `json:"s,omitempty"`
	B *bool    `json:"b,omitempty"`
	F *float64 `json:"f,omitempty"`
}

type wireSpan struct {
	Name    string     `json:"name"`
	Parent  int32      `json:"parent"`
	StartNs int64      `json:"start_ns"`
	EndNs   int64      `json:"end_ns"`
	Attrs   []wireAttr `json:"attrs,omitempty"`
}

type wireTrace struct {
	ID           uint64     `json:"id"`
	Begin        time.Time  `json:"begin"`
	DurationNs   int64      `json:"duration_ns"`
	DroppedSpans int32      `json:"dropped_spans,omitempty"`
	Spans        []wireSpan `json:"spans"`
}

// errBadTrace prefixes every decode failure.
var errBadTrace = errors.New("obs: bad trace encoding")

// MarshalJSON renders the trace in the wire shape.
func (r *ReqTrace) MarshalJSON() ([]byte, error) {
	w := wireTrace{
		ID:           r.ID,
		Begin:        r.Begin,
		DurationNs:   r.DurationNs,
		DroppedSpans: r.DroppedSpans,
		Spans:        make([]wireSpan, len(r.spans)),
	}
	for i := range r.spans {
		s := &r.spans[i]
		ws := wireSpan{Name: validUTF8(s.Name), Parent: s.Parent, StartNs: s.StartNs, EndNs: s.EndNs}
		if len(s.Attrs) > 0 {
			ws.Attrs = make([]wireAttr, len(s.Attrs))
			for j, a := range s.Attrs {
				wa := wireAttr{K: validUTF8(a.Key)}
				switch a.Kind {
				case AttrInt:
					v := a.Int
					wa.I = &v
				case AttrStr:
					v := validUTF8(a.Str)
					wa.S = &v
				case AttrBool:
					v := a.Bool
					wa.B = &v
				case AttrFloat:
					// JSON has no Inf/NaN literal; clamp to 0 rather than
					// poisoning the whole document.
					v := a.Float
					if math.IsNaN(v) || math.IsInf(v, 0) {
						v = 0
					}
					wa.F = &v
				default:
					return nil, fmt.Errorf("obs: attr %q has unknown kind %d", a.Key, a.Kind)
				}
				ws.Attrs[j] = wa
			}
		}
		w.Spans[i] = ws
	}
	return json.Marshal(w)
}

// validUTF8 replaces invalid UTF-8 with U+FFFD before encoding/json
// sees the string: the encoder escapes an invalid byte as \ufffd but
// writes a real U+FFFD raw, so without this a decoded trace would
// re-encode to different bytes.
func validUTF8(s string) string { return strings.ToValidUTF8(s, "\uFFFD") }

// EncodeReqTrace writes the trace as one compact JSON object plus a
// trailing newline — the `tracejson` verb's whole answer, and one
// element of the /debug/requests array.
func EncodeReqTrace(w io.Writer, r *ReqTrace) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// DecodeReqTrace parses a trace previously produced by EncodeReqTrace
// (or MarshalJSON). The result is a fully-linked, immutable ReqTrace —
// spans carry their owning trace, so Span/Root/Attr accessors work.
func DecodeReqTrace(data []byte) (*ReqTrace, error) {
	var w wireTrace
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadTrace, err)
	}
	if len(w.Spans) == 0 {
		return nil, fmt.Errorf("%w: no spans", errBadTrace)
	}
	r := &ReqTrace{
		ID:           w.ID,
		Begin:        w.Begin,
		DurationNs:   w.DurationNs,
		DroppedSpans: w.DroppedSpans,
		spans:        make([]Span, len(w.Spans)),
	}
	for i, ws := range w.Spans {
		if int(ws.Parent) >= i || (i == 0) != (ws.Parent < 0) {
			return nil, fmt.Errorf("%w: span %d has parent %d", errBadTrace, i, ws.Parent)
		}
		s := Span{
			Name:    ws.Name,
			Parent:  ws.Parent,
			StartNs: ws.StartNs,
			EndNs:   ws.EndNs,
			req:     r,
			idx:     int32(i),
		}
		if len(ws.Attrs) > 0 {
			s.Attrs = make([]Attr, len(ws.Attrs))
			for j, wa := range ws.Attrs {
				a := Attr{Key: wa.K}
				set := 0
				if wa.I != nil {
					a.Kind, a.Int = AttrInt, *wa.I
					set++
				}
				if wa.S != nil {
					a.Kind, a.Str = AttrStr, *wa.S
					set++
				}
				if wa.B != nil {
					a.Kind, a.Bool = AttrBool, *wa.B
					set++
				}
				if wa.F != nil {
					a.Kind, a.Float = AttrFloat, *wa.F
					set++
				}
				if set != 1 {
					return nil, fmt.Errorf("%w: attr %q has %d payloads", errBadTrace, wa.K, set)
				}
				s.Attrs[j] = a
			}
		}
		r.spans[i] = s
	}
	return r, nil
}

// WriteTraces renders a slice of traces as an indent-free JSON array,
// one trace per element, for the /debug/requests and /debug/slow
// endpoints.
func WriteTraces(w io.Writer, traces []*ReqTrace) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, r := range traces {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}
