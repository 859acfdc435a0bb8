// Package modelio serializes models to a compact, deterministic JSON
// envelope with base64-packed weights. It plays the role ONNX export plays
// in the paper's flow: carrying a pruned CNN model — *including the
// per-layer channel metadata the Flexible accelerator consumes at switch
// time* — from the design-time Library Generator to the Runtime Manager.
package modelio

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// formatVersion guards against decoding incompatible envelopes.
const formatVersion = 1

// envelope is the on-disk document.
type envelope struct {
	Version  int         `json:"version"`
	Name     string      `json:"name"`
	Dataset  string      `json:"dataset"`
	WBits    int         `json:"wbits"`
	ABits    int         `json:"abits"`
	InC      int         `json:"in_c"`
	InH      int         `json:"in_h"`
	InW      int         `json:"in_w"`
	Classes  int         `json:"classes"`
	PrRate   float64     `json:"prune_rate"`
	BaseCh   []int       `json:"base_channels"`
	Channels []int       `json:"channels"` // runtime channel metadata (paper §IV-A2)
	Layers   []layerJSON `json:"layers"`
}

type layerJSON struct {
	Kind string `json:"kind"`
	ID   string `json:"id"`

	// Conv / pool geometry.
	InC        int     `json:"in_c,omitempty"`
	InH        int     `json:"in_h,omitempty"`
	InW        int     `json:"in_w,omitempty"`
	OutC       int     `json:"out_c,omitempty"`
	KH         int     `json:"kh,omitempty"`
	KW         int     `json:"kw,omitempty"`
	StrideH    int     `json:"sh,omitempty"`
	StrideW    int     `json:"sw,omitempty"`
	PadH       int     `json:"ph,omitempty"`
	PadW       int     `json:"pw,omitempty"`
	In         int     `json:"in,omitempty"`
	Out        int     `json:"out,omitempty"`
	Channels   int     `json:"ch,omitempty"`
	Quantized  bool    `json:"quantized,omitempty"`
	PerChannel bool    `json:"per_channel,omitempty"`
	WBits      int     `json:"wbits,omitempty"` // per-layer override (mixed precision)
	ActBits    int     `json:"act_bits,omitempty"`
	ActMax     float64 `json:"act_max,omitempty"`
	Weight     string  `json:"w,omitempty"`
	Bias       string  `json:"b,omitempty"`
}

// packTensor encodes float32 data little-endian base64.
func packTensor(t *tensor.Tensor) string {
	if t == nil {
		return ""
	}
	buf := make([]byte, 4*t.Len())
	for i, v := range t.Data() {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// unpackTensor decodes into a tensor of the given shape.
func unpackTensor(s string, shape ...int) (*tensor.Tensor, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("modelio: bad tensor payload: %w", err)
	}
	t := tensor.New(shape...)
	if len(raw) != 4*t.Len() {
		return nil, fmt.Errorf("modelio: tensor payload %d bytes, want %d", len(raw), 4*t.Len())
	}
	for i := range t.Data() {
		t.Data()[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return t, nil
}

// Encode writes a model to w.
func Encode(w io.Writer, m *model.Model) error {
	env := envelope{
		Version: formatVersion,
		Name:    m.Name, Dataset: m.Dataset,
		WBits: m.WBits, ABits: m.ABits,
		InC: m.InC, InH: m.InH, InW: m.InW,
		Classes: m.Classes, PrRate: m.PruneRate,
		BaseCh:   m.BaseChannels,
		Channels: m.ConvChannels(),
	}
	for _, nl := range m.Net.Layers {
		var lj layerJSON
		switch l := nl.Layer.(type) {
		case *nn.Conv2D:
			lj = layerJSON{Kind: "conv", ID: l.ID,
				InC: l.Geom.InC, InH: l.Geom.InH, InW: l.Geom.InW,
				OutC: l.OutC, KH: l.Geom.KH, KW: l.Geom.KW,
				StrideH: l.Geom.StrideH, StrideW: l.Geom.StrideW,
				PadH: l.Geom.PadH, PadW: l.Geom.PadW,
				Quantized: l.Quant != nil, PerChannel: l.PerChannel,
				Weight: packTensor(l.Weight.Value),
			}
			if l.Quant != nil && l.Quant.Bits != m.WBits {
				lj.WBits = l.Quant.Bits
			}
			if l.Bias != nil {
				lj.Bias = packTensor(l.Bias.Value)
			}
		case *nn.Dense:
			lj = layerJSON{Kind: "dense", ID: l.ID, In: l.In, Out: l.Out,
				Quantized: l.Quant != nil, Weight: packTensor(l.Weight.Value)}
			if l.Quant != nil && l.Quant.Bits != m.WBits {
				lj.WBits = l.Quant.Bits
			}
			if l.Bias != nil {
				lj.Bias = packTensor(l.Bias.Value)
			}
		case *nn.MaxPool2D:
			lj = layerJSON{Kind: "maxpool", ID: l.ID,
				InC: l.Geom.InC, InH: l.Geom.InH, InW: l.Geom.InW,
				KH: l.Geom.KH, KW: l.Geom.KW,
				StrideH: l.Geom.StrideH, StrideW: l.Geom.StrideW,
				PadH: l.Geom.PadH, PadW: l.Geom.PadW}
		case *nn.ScaleShift:
			lj = layerJSON{Kind: "scaleshift", ID: l.ID, Channels: l.Channels,
				Weight: packTensor(l.Gamma.Value), Bias: packTensor(l.Beta.Value)}
		case *nn.QuantAct:
			lj = layerJSON{Kind: "quantact", ID: l.ID, ActBits: l.Q.Bits, ActMax: float64(l.Q.Max)}
		case *nn.ReLU:
			lj = layerJSON{Kind: "relu", ID: l.ID}
		case *nn.Flatten:
			lj = layerJSON{Kind: "flatten", ID: l.ID}
		default:
			return fmt.Errorf("modelio: cannot encode layer %s", nl.Layer.Name())
		}
		env.Layers = append(env.Layers, lj)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&env)
}

// layerQuant returns the weight quantizer of a conv or dense layer: nil
// when it is not quantized, its own grid when it names one (wbits), else
// the model's wq.
func layerQuant(lj layerJSON, wq *quant.WeightQuantizer) (*quant.WeightQuantizer, error) {
	if !lj.Quantized {
		return nil, nil
	}
	if lj.WBits > 0 {
		return quant.NewWeightQuantizer(lj.WBits)
	}
	return wq, nil
}

// Decode reads a model from r.
func Decode(r io.Reader) (*model.Model, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	if env.Version != formatVersion {
		return nil, fmt.Errorf("modelio: unsupported format version %d", env.Version)
	}
	var wq *quant.WeightQuantizer
	if env.WBits > 0 {
		q, err := quant.NewWeightQuantizer(env.WBits)
		if err != nil {
			return nil, err
		}
		wq = q
	}
	net := nn.NewNetwork()
	for i, lj := range env.Layers {
		switch lj.Kind {
		case "conv":
			geom := tensor.ConvGeom{InC: lj.InC, InH: lj.InH, InW: lj.InW,
				KH: lj.KH, KW: lj.KW, StrideH: lj.StrideH, StrideW: lj.StrideW,
				PadH: lj.PadH, PadW: lj.PadW}
			q, err := layerQuant(lj, wq)
			if err != nil {
				return nil, fmt.Errorf("modelio: layer %d: %w", i, err)
			}
			c, err := nn.NewConv2D(nn.ConvConfig{ID: lj.ID, Geom: geom, OutC: lj.OutC, Bias: lj.Bias != "", WQuant: q, PerChannel: lj.PerChannel})
			if err != nil {
				return nil, fmt.Errorf("modelio: layer %d: %w", i, err)
			}
			w, err := unpackTensor(lj.Weight, lj.OutC, lj.InC, lj.KH, lj.KW)
			if err != nil {
				return nil, err
			}
			copy(c.Weight.Value.Data(), w.Data())
			c.Weight.BumpVersion()
			if lj.Bias != "" {
				b, err := unpackTensor(lj.Bias, lj.OutC)
				if err != nil {
					return nil, err
				}
				copy(c.Bias.Value.Data(), b.Data())
				c.Bias.BumpVersion()
			}
			net.Append(c)
		case "dense":
			q, err := layerQuant(lj, wq)
			if err != nil {
				return nil, fmt.Errorf("modelio: layer %d: %w", i, err)
			}
			d, err := nn.NewDense(nn.DenseConfig{ID: lj.ID, In: lj.In, Out: lj.Out, Bias: lj.Bias != "", WQuant: q})
			if err != nil {
				return nil, fmt.Errorf("modelio: layer %d: %w", i, err)
			}
			w, err := unpackTensor(lj.Weight, lj.Out, lj.In)
			if err != nil {
				return nil, err
			}
			copy(d.Weight.Value.Data(), w.Data())
			d.Weight.BumpVersion()
			if lj.Bias != "" {
				b, err := unpackTensor(lj.Bias, lj.Out)
				if err != nil {
					return nil, err
				}
				copy(d.Bias.Value.Data(), b.Data())
				d.Bias.BumpVersion()
			}
			net.Append(d)
		case "maxpool":
			geom := tensor.ConvGeom{InC: lj.InC, InH: lj.InH, InW: lj.InW,
				KH: lj.KH, KW: lj.KW, StrideH: lj.StrideH, StrideW: lj.StrideW,
				PadH: lj.PadH, PadW: lj.PadW}
			p, err := nn.NewMaxPool2D(lj.ID, geom)
			if err != nil {
				return nil, fmt.Errorf("modelio: layer %d: %w", i, err)
			}
			net.Append(p)
		case "scaleshift":
			s, err := nn.NewScaleShift(lj.ID, lj.Channels)
			if err != nil {
				return nil, fmt.Errorf("modelio: layer %d: %w", i, err)
			}
			g, err := unpackTensor(lj.Weight, lj.Channels)
			if err != nil {
				return nil, err
			}
			copy(s.Gamma.Value.Data(), g.Data())
			b, err := unpackTensor(lj.Bias, lj.Channels)
			if err != nil {
				return nil, err
			}
			copy(s.Beta.Value.Data(), b.Data())
			net.Append(s)
		case "quantact":
			q, err := quant.NewActQuantizer(lj.ActBits, float32(lj.ActMax))
			if err != nil {
				return nil, fmt.Errorf("modelio: layer %d: %w", i, err)
			}
			a, err := nn.NewQuantAct(lj.ID, q)
			if err != nil {
				return nil, err
			}
			net.Append(a)
		case "relu":
			net.Append(nn.NewReLU(lj.ID))
		case "flatten":
			net.Append(nn.NewFlatten(lj.ID))
		default:
			return nil, fmt.Errorf("modelio: unknown layer kind %q", lj.Kind)
		}
	}
	m := &model.Model{
		Name: env.Name, Dataset: env.Dataset,
		WBits: env.WBits, ABits: env.ABits,
		InC: env.InC, InH: env.InH, InW: env.InW,
		Classes: env.Classes, Net: net,
		BaseChannels: env.BaseCh, PruneRate: env.PrRate,
	}
	return m, nil
}
