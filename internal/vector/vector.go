// Package vector defines the column-major batch representation shared
// by the batch executor (internal/executor), the column index
// (zero-copy batch scans) and the DN scan path (shard responses
// columnarized once at the source). A Batch holds one typed Vector per
// output column plus a selection vector; operators amortize per-row
// iteration costs over ~1024 rows and move whole batches through MPP
// exchanges (one queue operation per batch instead of per row).
package vector

import (
	"repro/internal/types"
)

// DefaultSize is the target rows per batch. Large enough to amortize
// virtual dispatch, queue locking and map-lookup overheads; small
// enough that a batch's working set stays cache-resident.
const DefaultSize = 1024

// Vector is one column's values. Exactly one payload representation is
// active, chosen by Kind:
//
//	KindInt, KindBool -> Ints (bools stored 0/1)
//	KindFloat         -> Floats
//	KindString        -> Strs
//	anything else     -> Box (generic boxed values, the slow path)
//
// Nulls, when non-nil, marks NULL positions; a nil Nulls slice means no
// value in the vector is NULL. Typed vectors degrade to Box when a
// value of a different class is appended (heterogeneous columns exist
// in partial-aggregate state rows, for example), so every column is
// representable and kernels fast-path the typed cases.
// An encoded payload (Dict/RLE/Pack, see encoding.go) replaces the raw
// slices while keeping the same accessor behavior; Encoded() reports
// it, and kernels that reach into the raw slices must check it first.
type Vector struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []bool
	Box    []types.Value

	Dict *DictEnc
	RLE  *RLEEnc
	Pack *BitPackEnc

	length int
}

// New returns an empty vector of the given kind with capacity hint n.
func New(kind types.Kind, n int) *Vector {
	v := &Vector{Kind: kind}
	switch kind {
	case types.KindInt, types.KindBool:
		v.Ints = make([]int64, 0, n)
	case types.KindFloat:
		v.Floats = make([]float64, 0, n)
	case types.KindString:
		v.Strs = make([]string, 0, n)
	default:
		v.Kind = types.KindNull
		v.Box = make([]types.Value, 0, n)
	}
	return v
}

// Len returns the number of values.
func (v *Vector) Len() int { return v.length }

// Wrap builds a zero-copy vector over existing typed storage (the
// column index's vectors). Exactly one payload slice should be non-nil,
// matching kind; nulls may be nil. Slices are re-capped to n so a
// concurrent append to the underlying storage can never alias into the
// view. Wrapped vectors belong in Shared batches: the storage owner
// keeps ownership.
func Wrap(kind types.Kind, ints []int64, floats []float64, strs []string, nulls []bool, n int) *Vector {
	v := &Vector{Kind: kind, length: n}
	if ints != nil {
		v.Ints = ints[:n:n]
	}
	if floats != nil {
		v.Floats = floats[:n:n]
	}
	if strs != nil {
		v.Strs = strs[:n:n]
	}
	if nulls != nil {
		v.Nulls = nulls[:n:n]
	}
	return v
}

// Boxed reports whether the vector stores generic values.
func (v *Vector) Boxed() bool {
	switch v.Kind {
	case types.KindInt, types.KindBool, types.KindFloat, types.KindString:
		return false
	}
	return true
}

// fits reports whether val can be appended without degrading.
func (v *Vector) fits(val types.Value) bool {
	if val.IsNull() {
		return true
	}
	switch v.Kind {
	case types.KindInt, types.KindBool:
		return val.K == v.Kind
	case types.KindFloat:
		return val.K == types.KindFloat
	case types.KindString:
		return val.K == types.KindString
	}
	return true // boxed accepts anything
}

// degrade converts a typed vector to boxed storage in place.
func (v *Vector) degrade() {
	box := make([]types.Value, v.length)
	for i := 0; i < v.length; i++ {
		box[i] = v.Value(i)
	}
	v.Kind = types.KindNull
	v.Ints, v.Floats, v.Strs = nil, nil, nil
	v.Box = box
}

// Append adds one value, degrading to boxed storage on a class
// mismatch.
func (v *Vector) Append(val types.Value) {
	if v.Encoded() {
		v.appendEncoded(val)
		return
	}
	if !v.fits(val) {
		v.degrade()
	}
	null := val.IsNull()
	if null && v.Nulls == nil {
		// Materialize the null bitmap lazily: most columns never see one.
		v.Nulls = make([]bool, v.length, v.length+1)
	}
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, null)
	}
	switch v.Kind {
	case types.KindInt, types.KindBool:
		v.Ints = append(v.Ints, val.I)
	case types.KindFloat:
		v.Floats = append(v.Floats, val.F)
	case types.KindString:
		v.Strs = append(v.Strs, val.S)
	default:
		v.Box = append(v.Box, val)
	}
	v.length++
}

// IsNull reports whether position i holds NULL.
func (v *Vector) IsNull(i int) bool {
	switch {
	case v.Dict != nil:
		return v.Dict.IsNull(i)
	case v.Pack != nil:
		return v.Pack.IsNull(i)
	case v.RLE != nil:
		return v.RLE.IsNull(i)
	}
	if v.Nulls != nil {
		return v.Nulls[i]
	}
	if v.Kind == types.KindNull && v.Box != nil {
		return v.Box[i].IsNull()
	}
	return false
}

// Value boxes position i.
func (v *Vector) Value(i int) types.Value {
	switch {
	case v.Dict != nil:
		if v.Dict.IsNull(i) {
			return types.Null()
		}
		return types.Str(v.Dict.Str(i))
	case v.Pack != nil:
		if v.Pack.IsNull(i) {
			return types.Null()
		}
		if v.Kind == types.KindBool {
			return types.Bool(v.Pack.Get(i) != 0)
		}
		return types.Int(v.Pack.Get(i))
	case v.RLE != nil:
		return v.RLE.Value(i)
	}
	if v.Nulls != nil && v.Nulls[i] {
		return types.Null()
	}
	switch v.Kind {
	case types.KindInt:
		return types.Int(v.Ints[i])
	case types.KindBool:
		return types.Bool(v.Ints[i] != 0)
	case types.KindFloat:
		return types.Float(v.Floats[i])
	case types.KindString:
		return types.Str(v.Strs[i])
	default:
		return v.Box[i]
	}
}

// reset empties the vector for reuse, keeping capacity. The kind is
// re-inferred from the first appended value, so a recycled vector can
// serve a column of any type.
func (v *Vector) reset() {
	v.length = 0
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Strs = v.Strs[:0]
	v.Nulls = nil
	v.Box = v.Box[:0]
	v.Dict, v.RLE, v.Pack = nil, nil, nil
	v.Kind = types.KindNull
}

// FromValue retypes an empty recycled vector for its first value: typed
// storage when the value has a typed representation, boxed otherwise.
func (v *Vector) retypeFor(val types.Value) {
	switch val.K {
	case types.KindInt, types.KindBool:
		v.Kind = val.K
		if v.Ints == nil {
			v.Ints = make([]int64, 0, DefaultSize)
		}
	case types.KindFloat:
		v.Kind = types.KindFloat
		if v.Floats == nil {
			v.Floats = make([]float64, 0, DefaultSize)
		}
	case types.KindString:
		v.Kind = types.KindString
		if v.Strs == nil {
			v.Strs = make([]string, 0, DefaultSize)
		}
	default:
		v.Kind = types.KindNull
	}
}

// AppendTyped adds one value to a possibly-empty vector, choosing typed
// storage from the first non-null value (builders use this so columns
// inferred from row data stay vectorizable).
func (v *Vector) AppendTyped(val types.Value) {
	if v.length == 0 && !val.IsNull() && v.Kind == types.KindNull && len(v.Box) == 0 {
		v.retypeFor(val)
	}
	v.Append(val)
}

// appendNull appends one NULL to typed or boxed storage.
func (v *Vector) appendNull() {
	if v.Encoded() {
		v.appendEncoded(types.Null())
		return
	}
	if v.Nulls == nil {
		v.Nulls = make([]bool, v.length, v.length+1)
	}
	v.Nulls = append(v.Nulls, true)
	switch v.Kind {
	case types.KindInt, types.KindBool:
		v.Ints = append(v.Ints, 0)
	case types.KindFloat:
		v.Floats = append(v.Floats, 0)
	case types.KindString:
		v.Strs = append(v.Strs, "")
	default:
		v.Box = append(v.Box, types.Null())
	}
	v.length++
}

// AppendRowsColumn bulk-appends column c of rows into an empty vector.
// A nil row contributes NULL (outer-join null extension). The storage
// kind comes from the first non-null value — even past leading NULLs —
// and the per-kind inner loops skip the fits/dispatch work Append pays
// per value; a later class mismatch degrades to boxed storage exactly
// like Append.
func (v *Vector) AppendRowsColumn(rows []types.Row, c int) {
	n := len(rows)
	i := 0
	for ; i < n; i++ {
		if rows[i] != nil && !rows[i][c].IsNull() {
			break
		}
	}
	if i == n { // all NULL: bitmap only, storage stays untyped
		for k := 0; k < n; k++ {
			v.appendNull()
		}
		return
	}
	if v.length == 0 && v.Kind == types.KindNull && len(v.Box) == 0 {
		v.retypeFor(rows[i][c])
	}
	for k := 0; k < i; k++ { // leading NULLs, now typed
		v.appendNull()
	}
	switch v.Kind {
	case types.KindInt, types.KindBool:
		for ; i < n; i++ {
			if rows[i] == nil {
				v.appendNull()
				continue
			}
			val := rows[i][c]
			if val.K == v.Kind {
				v.Ints = append(v.Ints, val.I)
				if v.Nulls != nil {
					v.Nulls = append(v.Nulls, false)
				}
				v.length++
			} else if val.IsNull() {
				v.appendNull()
			} else {
				break // class mismatch: degrade via the slow tail
			}
		}
	case types.KindFloat:
		for ; i < n; i++ {
			if rows[i] == nil {
				v.appendNull()
				continue
			}
			val := rows[i][c]
			if val.K == types.KindFloat {
				v.Floats = append(v.Floats, val.F)
				if v.Nulls != nil {
					v.Nulls = append(v.Nulls, false)
				}
				v.length++
			} else if val.IsNull() {
				v.appendNull()
			} else {
				break
			}
		}
	case types.KindString:
		for ; i < n; i++ {
			if rows[i] == nil {
				v.appendNull()
				continue
			}
			val := rows[i][c]
			if val.K == types.KindString {
				v.Strs = append(v.Strs, val.S)
				if v.Nulls != nil {
					v.Nulls = append(v.Nulls, false)
				}
				v.length++
			} else if val.IsNull() {
				v.appendNull()
			} else {
				break
			}
		}
	}
	for ; i < n; i++ { // mismatched class or boxed column
		if rows[i] == nil {
			v.appendNull()
			continue
		}
		v.Append(rows[i][c])
	}
}

// AppendGather appends src's values at the given physical positions —
// equivalent to AppendTyped(src.Value(p)) per position, but typed
// columns copy payload-to-payload without boxing (the hash join's left
// side emits through this).
func (v *Vector) AppendGather(src *Vector, pos []int) {
	if len(pos) == 0 {
		return
	}
	fresh := v.length == 0 && v.Kind == types.KindNull && len(v.Box) == 0 && !v.Encoded()
	if src.Dict != nil && fresh {
		// Late materialization off a dictionary column: gather decodes
		// only the surviving positions, payload-to-payload.
		v.gatherDict(src.Dict, pos)
		return
	}
	if src.Boxed() || src.Encoded() || !fresh {
		for _, p := range pos {
			v.AppendTyped(src.Value(p))
		}
		return
	}
	v.Kind = src.Kind
	switch src.Kind {
	case types.KindInt, types.KindBool:
		if v.Ints == nil {
			v.Ints = make([]int64, 0, len(pos))
		}
		for _, p := range pos {
			v.Ints = append(v.Ints, src.Ints[p])
		}
	case types.KindFloat:
		if v.Floats == nil {
			v.Floats = make([]float64, 0, len(pos))
		}
		for _, p := range pos {
			v.Floats = append(v.Floats, src.Floats[p])
		}
	case types.KindString:
		if v.Strs == nil {
			v.Strs = make([]string, 0, len(pos))
		}
		for _, p := range pos {
			v.Strs = append(v.Strs, src.Strs[p])
		}
	}
	if src.Nulls != nil {
		for k, p := range pos {
			if src.Nulls[p] && v.Nulls == nil {
				v.Nulls = make([]bool, k, len(pos))
			}
			if v.Nulls != nil {
				v.Nulls = append(v.Nulls, src.Nulls[p])
			}
		}
	}
	v.length += len(pos)
}
