package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Dataset is a named collection of equally long float64 arrays with grid
// metadata — the reproduction's stand-in for the NetCDF container the POP
// data ships in (the paper reads multi-variable NetCDF; this format carries
// the same structure with a fraction of the spec).
//
// File layout ("ISDS", little-endian):
//
//	magic   "ISDS"
//	version u32
//	dims    3 × u32          grid shape (nx, ny, nz); 0,0,0 if irregular
//	nvars   u32
//	per variable:
//	    nameLen u16, name bytes
//	    n       u64
//	    n × f64
type Dataset struct {
	NX, NY, NZ int
	Names      []string
	Vars       map[string][]float64
}

const datasetMagic = "ISDS"

// NewDataset creates an empty dataset with the given grid shape.
func NewDataset(nx, ny, nz int) *Dataset {
	return &Dataset{NX: nx, NY: ny, NZ: nz, Vars: map[string][]float64{}}
}

// Add appends a named variable; names must be unique and arrays must match
// the first variable's length.
func (d *Dataset) Add(name string, data []float64) error {
	if name == "" || len(name) > 65535 {
		return fmt.Errorf("store: invalid variable name %q", name)
	}
	if _, dup := d.Vars[name]; dup {
		return fmt.Errorf("store: duplicate variable %q", name)
	}
	if len(d.Names) > 0 && len(data) != len(d.Vars[d.Names[0]]) {
		return fmt.Errorf("store: variable %q has %d elements, dataset has %d",
			name, len(data), len(d.Vars[d.Names[0]]))
	}
	d.Names = append(d.Names, name)
	d.Vars[name] = data
	return nil
}

// Var fetches a variable by name.
func (d *Dataset) Var(name string) ([]float64, error) {
	v, ok := d.Vars[name]
	if !ok {
		return nil, fmt.Errorf("store: unknown variable %q (have %v)", name, d.Names)
	}
	return v, nil
}

// WriteDataset serializes the dataset.
func WriteDataset(w io.Writer, d *Dataset) (int64, error) {
	defer timeIO(tel.writeNs)()
	bw := bufio.NewWriter(w)
	total := int64(0)
	if _, err := bw.WriteString(datasetMagic); err != nil {
		return total, err
	}
	total += 4
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		total += int64(binary.Size(v))
		return nil
	}
	if err := put(uint32(version)); err != nil {
		return total, err
	}
	for _, dim := range []int{d.NX, d.NY, d.NZ} {
		if err := put(uint32(dim)); err != nil {
			return total, err
		}
	}
	if err := put(uint32(len(d.Names))); err != nil {
		return total, err
	}
	for _, name := range d.Names {
		if err := put(uint16(len(name))); err != nil {
			return total, err
		}
		if _, err := bw.WriteString(name); err != nil {
			return total, err
		}
		total += int64(len(name))
		data := d.Vars[name]
		if err := put(uint64(len(data))); err != nil {
			return total, err
		}
		if err := put(data); err != nil {
			return total, err
		}
	}
	if err := bw.Flush(); err != nil {
		return total, err
	}
	tel.bytesWritten.Add(total)
	return total, nil
}

// ReadDataset parses a dataset written by WriteDataset.
func ReadDataset(r io.Reader) (*Dataset, error) {
	defer timeIO(tel.readNs)()
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("store: reading magic: %w", err)
	}
	if string(magic[:]) != datasetMagic {
		return nil, fmt.Errorf("store: bad magic %q, not a dataset file", magic)
	}
	var ver uint32
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("store: unsupported dataset version %d", ver)
	}
	var dims [3]uint32
	if err := binary.Read(br, binary.LittleEndian, &dims); err != nil {
		return nil, err
	}
	var nvars uint32
	if err := binary.Read(br, binary.LittleEndian, &nvars); err != nil {
		return nil, err
	}
	if nvars > 4096 {
		return nil, fmt.Errorf("store: implausible variable count %d", nvars)
	}
	d := NewDataset(int(dims[0]), int(dims[1]), int(dims[2]))
	for i := uint32(0); i < nvars; i++ {
		var nameLen uint16
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("store: variable %d header: %w", i, err)
		}
		nameBytes := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBytes); err != nil {
			return nil, err
		}
		var n uint64
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		data, err := readFloats(br, n)
		if err != nil {
			return nil, fmt.Errorf("store: variable %q payload: %w", nameBytes, err)
		}
		if err := d.Add(string(nameBytes), data); err != nil {
			return nil, err
		}
		tel.bytesRead.Add(int64(8 * len(data)))
	}
	return d, nil
}
