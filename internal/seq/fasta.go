package seq

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// ReadFASTA parses FASTA-formatted records from r into a new Set.
// Residue letters outside the amino-acid alphabet are replaced by 'X'
// (see Clean); records with empty sequences are rejected, and a record
// with a blank header is named by Add's rule for unnamed sequences.
func ReadFASTA(r io.Reader) (*Set, error) {
	set := NewSet()
	err := ScanFASTA(r, func(name, residues string) error {
		_, err := set.Add(name, residues)
		return err
	})
	if err != nil {
		return nil, err
	}
	return set, nil
}

// ScanFASTA calls fn with each FASTA record of r in order: its header,
// trimmed and empty when blank, and its residues, cleaned (see Clean).
// A record with no residues is an error.
func ScanFASTA(r io.Reader, fn func(name, residues string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)

	var name string
	var body strings.Builder
	haveRecord := false
	records := 0

	flush := func() error {
		if !haveRecord {
			return nil
		}
		records++
		if body.Len() == 0 {
			return fmt.Errorf("seq: FASTA record %d (%q) has no residues", records, name)
		}
		if err := fn(name, Clean(body.String())); err != nil {
			return err
		}
		body.Reset()
		return nil
	}

	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '>' {
			if err := flush(); err != nil {
				return err
			}
			name = strings.TrimSpace(line[1:])
			haveRecord = true
			continue
		}
		if !haveRecord {
			return fmt.Errorf("seq: line %d: residue data before first FASTA header", lineno)
		}
		body.WriteString(line)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}

// ReadFASTAFile reads a FASTA file from disk.
func ReadFASTAFile(path string) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFASTA(f)
}

// WriteFASTA writes the set to w in FASTA format, wrapping residue lines
// at width columns (width <= 0 means no wrapping).
func WriteFASTA(w io.Writer, set *Set, width int) error {
	bw := bufio.NewWriter(w)
	for _, s := range set.Seqs {
		if _, err := fmt.Fprintf(bw, ">%s\n", s.Name); err != nil {
			return err
		}
		res := s.Res
		if width <= 0 {
			if _, err := bw.Write(res); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
			continue
		}
		for off := 0; off < len(res); off += width {
			end := off + width
			if end > len(res) {
				end = len(res)
			}
			if _, err := bw.Write(res[off:end]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFASTAFile writes the set to a file in FASTA format.
func WriteFASTAFile(path string, set *Set, width int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteFASTA(f, set, width); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
