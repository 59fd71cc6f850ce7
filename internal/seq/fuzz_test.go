package seq_test

import (
	"bytes"
	"os"
	"testing"

	"profam/internal/seq"
	"profam/internal/workload"
)

// FuzzReadFASTA feeds arbitrary bytes to the FASTA decoder. It must
// never panic, and every set it accepts must survive a write through
// WriteFASTA and a second read with the same names and residues.
func FuzzReadFASTA(f *testing.F) {
	sample, err := os.ReadFile("testdata/sample.fasta")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	// The service e2e corpus (datagen -families 6 -mean-size 10
	// -mean-length 110 -contained 0.2 -singletons 4 -seed 7, 70-column
	// lines), whole and as its first wave.
	corpus, _ := workload.Generate(workload.Params{
		Families: 6, MeanFamilySize: 10, MeanLength: 110,
		Divergence: 0.12, IndelRate: 0.01, ContainedFrac: 0.2,
		Singletons: 4, Seed: 7,
	})
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, corpus, 70); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	wave, _ := corpus.Subset([]int{0, 1, 2})
	buf.Reset()
	if err := seq.WriteFASTA(&buf, wave, 70); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{
		"",
		">\nMKV\n",
		">a b\r\nmkv\r\n\r\n>b\nMK*V-\n",
		"MKV\n>a\nMKV\n",
		">a\n>b\nMKV\n",
		">>a\n  MK V \n",
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		set, err := seq.ReadFASTA(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := seq.WriteFASTA(&out, set, 60); err != nil {
			t.Fatal(err)
		}
		again, err := seq.ReadFASTA(&out)
		if err != nil {
			t.Fatalf("re-read of written set failed: %v\nwritten:\n%s", err, out.Bytes())
		}
		if again.Len() != set.Len() {
			t.Fatalf("re-read %d records, wrote %d", again.Len(), set.Len())
		}
		for i, s := range set.Seqs {
			r := again.Seqs[i]
			if r.Name != s.Name || !bytes.Equal(r.Res, s.Res) {
				t.Fatalf("record %d: wrote %q %q, re-read %q %q", i, s.Name, s.Res, r.Name, r.Res)
			}
		}
	})
}
