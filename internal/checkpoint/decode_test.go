package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/jsonrec"
	"repro/internal/world"
)

// decodeCountryReference is the encoding/json reading of a country
// file: the envelope unmarshalled with the body as a RawMessage, the
// checksum compared, then the body unmarshalled reflectively into
// Country, whose records and stats row decode under the dataset types'
// json tags. It is
// the reference decodeCountry is held to — whatever decodeCountry
// accepts, this accepts with an identical Country, tally row included.
// It is more lenient about framing (any JSON spelling of the envelope
// loads). Both ignore keys Country does not declare, such as the
// "delta" of files written before the tally row replaced it.
func decodeCountryReference(raw []byte, name string) (Country, error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return Country{}, fmt.Errorf("unparseable: %w", err)
	}
	sum := sha256.Sum256(env.Country)
	if env.SHA256 != hex.EncodeToString(sum[:]) {
		return Country{}, errors.New("content checksum mismatch")
	}
	var c Country
	if err := json.Unmarshal(env.Country, &c); err != nil {
		return Country{}, fmt.Errorf("unparseable country: %w", err)
	}
	if c.Code == "" || c.Code+".json" != name {
		return Country{}, fmt.Errorf("stored code %q does not match filename", c.Code)
	}
	return c, nil
}

// storedBytes returns the exact file Put writes for c.
func storedBytes(t testing.TB, c Country) []byte {
	t.Helper()
	dir := t.TempDir()
	s := &Store{dir: dir, tmpSuffix: ".s0.tmp"}
	if err := s.Put(c); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, c.Code+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// richCountry is testCountry with records exercising every field and
// several string spellings encoding/json escapes.
func richCountry(code string) Country {
	c := testCountry(code)
	for i := 0; i < 3; i++ {
		c.Records = append(c.Records, dataset.URLRecord{
			URL:  fmt.Sprintf("https://gob.%s/p?a=%d&b=<é>\u2028", code, i),
			Host: "gob." + code, Country: code, Region: world.LAC,
			Bytes: int64(1000 * i), Depth: i, Method: "domain",
			IP: netip.MustParseAddr("2001:db8::1"), ASN: 3 + i, Org: `Org "Q"\`,
			RegCountry: "US", GovAS: i%2 == 0, Anycast: i == 1,
			ServeCountry: "US", GeoMethod: "MG", Category: world.Cat3PGlobal,
			TopsiteSelf: i == 2, HTTPSValid: true,
		})
	}
	return c
}

func TestDecodeCountryMatchesReference(t *testing.T) {
	for _, c := range []Country{testCountry("UY"), richCountry("MX"), {Code: "NG"}} {
		raw := storedBytes(t, c)
		got, err := decodeCountry(jsonrec.NewDecoder(), raw, c.Code+".json")
		if err != nil {
			t.Fatalf("%s: %v", c.Code, err)
		}
		want, err := decodeCountryReference(raw, c.Code+".json")
		if err != nil {
			t.Fatalf("%s: reference: %v", c.Code, err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, c) {
			t.Fatalf("%s:\n got %+v\nwant %+v", c.Code, got, want)
		}
	}
}

// TestEveryByteMutationRejected: changing any single byte of a stored
// envelope — framing, checksum or body — fails verification, so loadAll
// quarantines the file instead of loading it.
func TestEveryByteMutationRejected(t *testing.T) {
	raw := storedBytes(t, richCountry("UY"))
	dec := jsonrec.NewDecoder()
	for i := range raw {
		for _, flip := range []byte{0x01, 0x20, 0x80, 0xff} {
			m := append([]byte(nil), raw...)
			m[i] ^= flip
			if _, err := decodeCountry(dec, m, "UY.json"); err == nil {
				t.Fatalf("byte %d ^ %#x accepted", i, flip)
			}
		}
	}
}

// TestNonCanonicalEnvelopeQuarantined: an envelope that is valid JSON
// with the right checksum but not spelled as Put writes it is
// quarantined as unparseable — framing accepts exactly Put's bytes.
func TestNonCanonicalEnvelopeQuarantined(t *testing.T) {
	corruptAndReopen(t, func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		swapped := []byte(fmt.Sprintf(`{"country": %s, "sha256": %q}`, env.Country, env.SHA256))
		if _, err := decodeCountryReference(swapped, "UY.json"); err != nil {
			t.Fatalf("respelled envelope is not a valid country for the reference: %v", err)
		}
		if err := os.WriteFile(path, swapped, 0o666); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDecodeCountry holds decodeCountry to the encoding/json
// reference: no input panics; whatever decodeCountry accepts, the
// reference accepts with an identical Country; and flipping any one
// byte of an accepted file gets it rejected. With seal set, data is a
// country body and is wrapped in a correctly checksummed envelope
// first, so mutations reach the body decoder instead of stopping at
// the checksum. The committed corpus holds real Put output, real
// bodies and their truncations.
func FuzzDecodeCountry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, seal bool, name string, pos uint, flip byte) {
		raw := data
		if seal {
			sum := sha256.Sum256(data)
			raw = []byte(envHead + hex.EncodeToString(sum[:]) + envMid + string(data) + envTail)
		}
		c, err := decodeCountry(jsonrec.NewDecoder(), raw, name)
		if err != nil {
			return
		}
		ref, err := decodeCountryReference(raw, name)
		if err != nil {
			t.Fatalf("accepted a file the reference rejects: %v", err)
		}
		if !reflect.DeepEqual(c, ref) {
			t.Fatalf("decoded country differs from the reference:\n got %+v\nwant %+v", c, ref)
		}
		if flip == 0 {
			return
		}
		m := append([]byte(nil), raw...)
		m[pos%uint(len(m))] ^= flip
		if _, err := decodeCountry(jsonrec.NewDecoder(), m, name); err == nil {
			t.Fatalf("byte %d ^ %#x accepted", pos%uint(len(m)), flip)
		}
	})
}

// corpusFile reads the []byte argument of a committed FuzzDecodeCountry
// corpus entry.
func corpusFile(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeCountry", name))
	if err != nil {
		t.Fatal(err)
	}
	_, arg, ok := strings.Cut(string(raw), "\n[]byte(")
	arg, _, ok2 := strings.Cut(arg, ")\n")
	data, err := strconv.Unquote(arg)
	if !ok || !ok2 || err != nil {
		t.Fatalf("%s: not a corpus entry with a []byte argument: %v", name, err)
	}
	return []byte(data)
}

// TestFieldNamedFilesReencodeUnderTags: country files written before
// the record and stats row carried json tags name every field by its
// Go name and store zero values. They decode, because keys match case
// insensitively; Put writes the same Country back under the tags,
// omitting zero optional fields, into a smaller file that decodes to
// the same Country.
func TestFieldNamedFilesReencodeUnderTags(t *testing.T) {
	for name, file := range map[string]string{"put-uy-tally": "UY.json", "put-kz-study": "KZ.json"} {
		old := corpusFile(t, name)
		if !strings.Contains(string(old), `"LandingURLs":`) || !strings.Contains(string(old), `"HTTPSValid":false`) {
			t.Fatalf("%s is not a file written under Go field names", name)
		}
		c, err := decodeCountry(jsonrec.NewDecoder(), old, file)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw := storedBytes(t, c)
		again, err := decodeCountry(jsonrec.NewDecoder(), raw, file)
		if err != nil {
			t.Fatalf("%s re-put: %v", name, err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("%s: re-put country differs:\n got %+v\nwant %+v", name, again, c)
		}
		if len(raw) >= len(old) {
			t.Fatalf("%s: re-put file is %d bytes, not smaller than %d", name, len(raw), len(old))
		}
	}
}
