package server

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzIngestJSON feeds arbitrary bytes to the JSON ingest decoder. It
// must never panic; every body it accepts must re-encode and decode to
// the same names and residues; and the same body followed by anything
// but whitespace must be refused.
func FuzzIngestJSON(f *testing.F) {
	valid := `{"sequences":[{"name":"a","residues":"MKVLWAALLG"},{"name":"b c","residues":"mkv*-"}]}`
	for _, s := range []string{
		valid,
		`{"sequences":[]}`,
		valid + `{"sequences":[{"name":"d","residues":"GHIK"}]}`,
		valid[:len(valid)/2],
		`{"sequences":[{"name":"a","residues":"MKV","extra":1}],"version":2}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		names, seqs, err := decodeIngestJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		if len(names) != len(seqs) {
			t.Fatalf("%d names for %d residue strings", len(names), len(seqs))
		}
		var req ingestRequest
		for i := range names {
			req.Sequences = append(req.Sequences, ingestSequence{names[i], seqs[i]})
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		names2, seqs2, err := decodeIngestJSON(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-decode of %s failed: %v", out, err)
		}
		if !slices.Equal(names, names2) || !slices.Equal(seqs, seqs2) {
			t.Fatalf("round trip changed the body: %q %q -> %q %q", names, seqs, names2, seqs2)
		}
		for _, tail := range []string{"x", "{}", " 0"} {
			if _, _, err := decodeIngestJSON(bytes.NewReader(append(slices.Clip(in), tail...))); err == nil {
				t.Fatalf("accepted %q followed by %q", in, tail)
			}
		}
	})
}
