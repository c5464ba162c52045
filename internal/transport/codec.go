// Package transport is the pluggable shuffle layer of the MPC simulator:
// the mechanism that moves a round's emitted messages from the machines
// that produced them to the machines that consume them next round.
//
// The simulator always *counted* communication; this package makes it a
// real data path. A Round implementation decides where machines execute
// and how their outputs travel: Local keeps today's in-memory exchange
// (zero copies, zero sockets — the seed behavior, preserved bit-
// identically), while the TCP coordinator/worker pair runs the cluster
// across real worker processes, shipping every machine outbox through
// length-prefixed binary frames over real sockets, with heartbeat-based
// peer-failure detection and deterministic mid-round reassignment.
//
// The package deliberately knows nothing about internal/mpc: machine
// outputs are carried as Payload values (anything that reports its size
// in words; mpc.Payload is an alias) encoded by the self-describing codec
// below. This keeps the dependency arrow pointing one way (mpc ->
// transport) so the simulator can treat the shuffle as a plug.
package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
)

// The payload codec: a deterministic, self-describing binary encoding of
// the payload values machines ship between rounds.
//
// Every concrete payload type is registered once (Register, from the
// owning package's init), keyed by a stable name. A Codec instance assigns
// wire ids by sorting the registered names, and the TCP handshake ships
// the coordinator's (id -> name) table so a worker built from a different
// binary — which may have registered a superset or subset of types in a
// different init order — maps names, never raw ids. Encoding is defined
// structurally over the value (varint integers, length-prefixed byte
// strings, declaration-order struct fields, sorted map keys), so two
// processes encoding equal values always produce equal bytes.

// registry is the process-global type table.
var registry = struct {
	sync.Mutex
	byName map[string]reflect.Type
	byType map[reflect.Type]string
}{
	byName: make(map[string]reflect.Type),
	byType: make(map[reflect.Type]string),
}

// Register adds a payload type to the codec's table under a stable,
// package-qualified name (e.g. "mpc.Ints"). sample is any value of the
// type — typically the zero value; pointer types register the pointer
// (values decode back to a pointer of the same type). Register panics on
// duplicate names or duplicate types: both indicate a wiring bug that
// would corrupt frames silently.
func Register(name string, sample any) {
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("transport: Register with nil sample")
	}
	registry.Lock()
	defer registry.Unlock()
	if prev, ok := registry.byName[name]; ok {
		panic(fmt.Sprintf("transport: payload name %q registered twice (%v, %v)", name, prev, t))
	}
	if prev, ok := registry.byType[t]; ok {
		panic(fmt.Sprintf("transport: payload type %v registered twice (%q, %q)", t, prev, name))
	}
	registry.byName[name] = t
	registry.byType[t] = name
}

// RegisteredNames returns the sorted names of every registered payload
// type — the table a coordinator ships in its handshake.
func RegisteredNames() []string {
	registry.Lock()
	defer registry.Unlock()
	names := make([]string, 0, len(registry.byName))
	for name := range registry.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Codec encodes and decodes payload values against a fixed (id -> name)
// table. Instances are safe for concurrent use once constructed. The nil
// *Codec has an empty table.
type Codec struct {
	names []string
	types []reflect.Type
	idOf  map[reflect.Type]int
}

// NewCodec builds a codec over the process's full registry, ids assigned
// in sorted-name order.
func NewCodec() *Codec {
	c, err := NewCodecFor(RegisteredNames())
	if err != nil {
		panic(err) // unreachable: the table came from our own registry
	}
	return c
}

// NewCodecFor builds a codec over an explicit name table (the handshake
// path: a worker adopts the coordinator's table). Every name must be
// registered in this process; unknown names mean the two binaries were
// built from diverged sources.
func NewCodecFor(names []string) (*Codec, error) {
	registry.Lock()
	defer registry.Unlock()
	c := &Codec{
		names: append([]string(nil), names...),
		types: make([]reflect.Type, len(names)),
		idOf:  make(map[reflect.Type]int, len(names)),
	}
	for i, name := range names {
		t, ok := registry.byName[name]
		if !ok {
			return nil, fmt.Errorf("transport: peer table names unknown payload type %q (binaries out of sync?)", name)
		}
		c.types[i] = t
		c.idOf[t] = i
	}
	return c, nil
}

// Table returns the codec's name table in id order.
func (c *Codec) Table() []string { return append([]string(nil), c.names...) }

// Encode appends the self-describing encoding of v to buf: a uvarint type
// id followed by the structural body — the encoding of an interface value.
func (c *Codec) Encode(buf []byte, v any) ([]byte, error) {
	return c.encodeValue(buf, reflect.ValueOf(&v).Elem())
}

// Decode decodes one self-describing value from data, rejecting trailing
// bytes — a frame must contain exactly one value.
func (c *Codec) Decode(data []byte) (any, error) {
	var v any
	err := c.ReadValue(data, &v)
	return v, err
}

// AppendValue appends the structural encoding of v to buf with no type id:
// the form of a value whose type both ends know, such as a frame body.
// Interface values inside v carry their type id, so the nil codec, which
// has no table, serves only values without any (the handshake bodies).
func (c *Codec) AppendValue(buf []byte, v any) ([]byte, error) {
	return c.encodeValue(buf, reflect.ValueOf(v))
}

// ReadValue decodes data into *ptr, the inverse of AppendValue, rejecting
// trailing bytes. Struct fields are decoded in place and in order, so on
// error *ptr still holds every field decoded before the failure.
func (c *Codec) ReadValue(data []byte, ptr any) error {
	pv := reflect.ValueOf(ptr)
	if pv.Kind() != reflect.Pointer || pv.IsNil() {
		return fmt.Errorf("transport: ReadValue into %T, want a non-nil pointer", ptr)
	}
	rest, err := c.decodeValue(data, pv.Elem())
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("transport: %d trailing bytes after value", len(rest))
	}
	return nil
}

// ---- structural encoding ----
//
// Kinds covered: bool, all int/uint widths, float64, string, []byte (fast
// path), slices, fixed arrays, maps with int-like or string keys (sorted),
// pointers (nil flag + pointee), structs (exported fields in declaration
// order; unexported fields are rejected so a type that would silently lose
// state cannot be shipped), and interfaces (the dynamic value's uvarint
// type id in the codec's table, then the value; decoded only if the
// registered type implements the interface).

func (c *Codec) encodeValue(buf []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(buf, v.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(buf, v.Uint()), nil
	case reflect.Float64, reflect.Float32:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float())), nil
	case reflect.String:
		s := v.String()
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...), nil
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			b := v.Bytes()
			buf = binary.AppendUvarint(buf, uint64(len(b)))
			return append(buf, b...), nil
		}
		buf = binary.AppendUvarint(buf, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			var err error
			if buf, err = c.encodeValue(buf, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			var err error
			if buf, err = c.encodeValue(buf, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Map:
		keys := v.MapKeys()
		switch v.Type().Key().Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			sort.Slice(keys, func(i, j int) bool { return keys[i].Int() < keys[j].Int() })
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			sort.Slice(keys, func(i, j int) bool { return keys[i].Uint() < keys[j].Uint() })
		case reflect.String:
			sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		default:
			return nil, fmt.Errorf("transport: unsupported map key kind %v", v.Type().Key().Kind())
		}
		buf = binary.AppendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			var err error
			if buf, err = c.encodeValue(buf, k); err != nil {
				return nil, err
			}
			if buf, err = c.encodeValue(buf, v.MapIndex(k)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(buf, 0), nil
		}
		return c.encodeValue(append(buf, 1), v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanInterface() {
				return nil, fmt.Errorf("transport: %v has unexported field %s; payload types must be fully exported", v.Type(), v.Type().Field(i).Name)
			}
			var err error
			if buf, err = c.encodeValue(buf, f); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Interface:
		var t reflect.Type
		if !v.IsNil() {
			t = v.Elem().Type()
		}
		var id int
		ok := c != nil
		if ok {
			id, ok = c.idOf[t]
		}
		if !ok {
			return nil, fmt.Errorf("transport: payload type %v not registered (missing transport.Register?)", t)
		}
		return c.encodeValue(binary.AppendUvarint(buf, uint64(id)), v.Elem())
	default:
		return nil, fmt.Errorf("transport: unsupported kind %v", v.Kind())
	}
}

func (c *Codec) decodeValue(data []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		if len(data) < 1 {
			return nil, errTruncated
		}
		switch data[0] {
		case 0:
			v.SetBool(false)
		case 1:
			v.SetBool(true)
		default:
			return nil, fmt.Errorf("bad bool byte %d", data[0])
		}
		return data[1:], nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, rest, err := varint(data)
		if err != nil {
			return nil, err
		}
		if v.OverflowInt(x) {
			return nil, fmt.Errorf("int overflow for %v: %d", v.Type(), x)
		}
		v.SetInt(x)
		return rest, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, rest, err := uvarint(data)
		if err != nil {
			return nil, err
		}
		if v.OverflowUint(x) {
			return nil, fmt.Errorf("uint overflow for %v: %d", v.Type(), x)
		}
		v.SetUint(x)
		return rest, nil
	case reflect.Float64, reflect.Float32:
		if len(data) < 8 {
			return nil, errTruncated
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data)))
		return data[8:], nil
	case reflect.String:
		l, data, err := uvarint(data)
		if err != nil {
			return nil, err
		}
		if uint64(len(data)) < l {
			return nil, errTruncated
		}
		v.SetString(string(data[:l]))
		return data[l:], nil
	case reflect.Slice:
		l, data, err := uvarint(data)
		if err != nil {
			return nil, err
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if uint64(len(data)) < l {
				return nil, errTruncated
			}
			if l == 0 {
				v.SetZero() // nil slice: re-encoding must reproduce the bytes
				return data, nil
			}
			v.SetBytes(append([]byte(nil), data[:l]...))
			return data[l:], nil
		}
		// Each element costs at least one byte; an announced length beyond
		// that bound is a corrupt or hostile frame, not a big value.
		if l > uint64(len(data)) {
			return nil, fmt.Errorf("slice length %d exceeds remaining %d bytes", l, len(data))
		}
		if l == 0 {
			v.SetZero()
			return data, nil
		}
		s := reflect.MakeSlice(v.Type(), int(l), int(l))
		for i := 0; i < int(l); i++ {
			if data, err = c.decodeValue(data, s.Index(i)); err != nil {
				return nil, err
			}
		}
		v.Set(s)
		return data, nil
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			var err error
			if data, err = c.decodeValue(data, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return data, nil
	case reflect.Map:
		l, data, err := uvarint(data)
		if err != nil {
			return nil, err
		}
		if l > uint64(len(data)) {
			return nil, fmt.Errorf("map length %d exceeds remaining %d bytes", l, len(data))
		}
		if l == 0 {
			v.SetZero()
			return data, nil
		}
		m := reflect.MakeMapWithSize(v.Type(), int(l))
		for i := 0; i < int(l); i++ {
			k := reflect.New(v.Type().Key()).Elem()
			e := reflect.New(v.Type().Elem()).Elem()
			if data, err = c.decodeValue(data, k); err != nil {
				return nil, err
			}
			if data, err = c.decodeValue(data, e); err != nil {
				return nil, err
			}
			m.SetMapIndex(k, e)
		}
		v.Set(m)
		return data, nil
	case reflect.Pointer:
		if len(data) < 1 {
			return nil, errTruncated
		}
		flag := data[0]
		data = data[1:]
		switch flag {
		case 0:
			v.SetZero()
			return data, nil
		case 1:
			p := reflect.New(v.Type().Elem())
			rest, err := c.decodeValue(data, p.Elem())
			if err != nil {
				return nil, err
			}
			v.Set(p)
			return rest, nil
		default:
			return nil, fmt.Errorf("bad pointer flag %d", flag)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanSet() {
				return nil, fmt.Errorf("%v has unexported field %s", v.Type(), v.Type().Field(i).Name)
			}
			var err error
			if data, err = c.decodeValue(data, f); err != nil {
				return nil, err
			}
		}
		return data, nil
	case reflect.Interface:
		id, data, err := uvarint(data)
		if err != nil {
			return nil, fmt.Errorf("bad payload type id: %w", err)
		}
		var types []reflect.Type
		if c != nil {
			types = c.types
		}
		if id >= uint64(len(types)) {
			return nil, fmt.Errorf("payload type id %d outside table (%d types)", id, len(types))
		}
		t, name := types[id], c.names[id]
		if !t.Implements(v.Type()) {
			return nil, fmt.Errorf("%s does not implement %v", name, v.Type())
		}
		e := reflect.New(t).Elem()
		if data, err = c.decodeValue(data, e); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", name, err)
		}
		v.Set(e)
		return data, nil
	default:
		return nil, fmt.Errorf("unsupported kind %v", v.Kind())
	}
}

var errTruncated = fmt.Errorf("truncated value")

// uvarint reads one uvarint from the front of data. The encoder writes
// the shortest form, so a longer one (a redundant trailing zero group) is
// refused: every value has exactly one encoding, and a decoded value
// re-encodes to the bytes it came from.
func uvarint(data []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	if n > 1 && data[n-1] == 0 {
		return 0, nil, errNonCanonical
	}
	return x, data[n:], nil
}

// varint reads one zig-zag signed varint, shortest form only like uvarint.
func varint(data []byte) (int64, []byte, error) {
	ux, rest, err := uvarint(data)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, rest, err
}

var errNonCanonical = fmt.Errorf("varint not in shortest form")
