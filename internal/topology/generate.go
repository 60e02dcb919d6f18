package topology

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/phy"
)

// Procedural deployment generators for the massive-scale runs. All three
// kinds are deterministic in GenParams (same params, same topology, byte
// for byte), set FastShadow and ForceSparse so a 100k-node deployment never
// allocates the dense matrix, and assign node IDs in spatial scan order —
// floor-major/row-major for the structured kinds, Morton order for the
// random field — so a contiguous ID range is also a spatially compact
// region. The slot loop visits devices and resolves listeners in ascending
// ID, so this order fixes every generated plant's results: renumbering the
// nodes would move every sparse pin.

// GenKind selects a generator family.
type GenKind string

const (
	// GenPlant is a multi-floor process plant: jittered device grids on
	// stacked floor plates, one access point per floor at the riser core.
	GenPlant GenKind = "plant"
	// GenCampus is a campus of single-floor buildings on a street grid,
	// each building a jittered device grid, access points spread across
	// buildings.
	GenCampus GenKind = "campus"
	// GenField is a uniform-density open field with rectangular obstacle
	// exclusion zones and access points clustered at the field centre.
	GenField GenKind = "field"
)

// GenParams parameterises a procedural deployment. Zero values select the
// documented defaults.
type GenParams struct {
	Kind  GenKind
	Nodes int   // field devices (total size is Nodes + APs)
	Seed  int64 // placement + shadowing seed (default 1)

	Floors int // plant only: floor count (0 = one floor per ~2500 devices)
	APs    int // access points (0 = auto per kind)

	// SpacingM is the mean device pitch in metres (default 5, i.e. one
	// device per 25 m^2). With the default -25 dBm radios the mean keep
	// radius is ~15 m, so the default density yields ~25-30 usable
	// neighbours per device.
	SpacingM float64

	TxPowerDBm    float64 // default genTxPowerDBm
	ShadowSigmaDB float64 // default 4 dB (negative disables shadowing)
}

// genTxPowerDBm keeps generated deployments multi-hop at industrial
// density: -25 dBm gives a ~15 m mean keep radius at the default 5 m
// pitch, reproducing the 3+ hop depth of the testbeds at any scale.
const genTxPowerDBm = -25.0

func (p *GenParams) normalise() error {
	if p.Nodes < 1 {
		return fmt.Errorf("generate: need at least one field device, got %d", p.Nodes)
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.SpacingM <= 0 {
		p.SpacingM = 5
	}
	if p.TxPowerDBm == 0 {
		p.TxPowerDBm = genTxPowerDBm
	}
	switch {
	case p.ShadowSigmaDB < 0:
		p.ShadowSigmaDB = 0
	case p.ShadowSigmaDB == 0:
		p.ShadowSigmaDB = 4
	}
	switch p.Kind {
	case GenPlant:
		if p.Floors <= 0 {
			p.Floors = (p.Nodes + 2499) / 2500
		}
		if p.APs <= 0 {
			p.APs = p.Floors
			if p.APs < 2 {
				p.APs = 2
			}
		}
	case GenCampus, GenField:
		if p.APs <= 0 {
			p.APs = p.Nodes / 2500
			if p.APs < 2 {
				p.APs = 2
			}
			if p.APs > 8 {
				p.APs = 8
			}
		}
	default:
		return fmt.Errorf("generate: unknown kind %q", p.Kind)
	}
	return nil
}

// Generate builds a procedural deployment. The result is validated,
// sparse-only, and guaranteed connected: a deterministic repair pass
// relocates any device the gateway component cannot reach.
func Generate(p GenParams) (*Topology, error) {
	if err := p.normalise(); err != nil {
		return nil, err
	}
	t := &Topology{
		Name:          fmt.Sprintf("gen-%s-%d-%d", p.Kind, p.Nodes, p.Seed),
		NumAPs:        p.APs,
		TxPowerDBm:    p.TxPowerDBm,
		ShadowSigmaDB: p.ShadowSigmaDB,
		shadowSeed:    p.Seed,
		ForceSparse:   true,
		FastShadow:    true,
	}
	switch p.Kind {
	case GenPlant:
		genPlant(t, p)
	case GenCampus:
		genCampus(t, p)
	case GenField:
		genField(t, p)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	repairConnectivity(t, p.Seed)
	// Suggested flow sources and jammers, strided across the field-device
	// ID range: scan-order IDs make an even ID stride an even spatial
	// spread, so the default flow set exercises every region of the
	// deployment.
	count := t.N() - t.NumAPs
	for i := 0; i < 8 && i < count; i++ {
		t.SuggestedSources = append(t.SuggestedSources, NodeID(t.NumAPs+1+i*count/8))
	}
	for i := 0; i < 3 && i*2+1 < count; i++ {
		t.SuggestedJammers = append(t.SuggestedJammers, NodeID(t.NumAPs+1+(2*i+1)*count/6))
	}
	return t, nil
}

// genPlant lays out p.Floors stacked floor plates, each a jittered
// cols x rows grid at the device pitch, with the access points vertically
// stacked at the riser core (AP i serves floor (i-1) mod Floors). IDs run
// floor-major then row-major.
func genPlant(t *Topology, p GenParams) {
	perFloor := (p.Nodes + p.Floors - 1) / p.Floors
	cols := int(math.Ceil(math.Sqrt(float64(perFloor))))
	rows := (perFloor + cols - 1) / cols
	w := float64(cols) * p.SpacingM
	h := float64(rows) * p.SpacingM

	t.Nodes = append(t.Nodes, Node{}) // index 0 unused
	for i := 1; i <= p.APs; i++ {
		floor := (i - 1) % p.Floors
		t.Nodes = append(t.Nodes, Node{
			ID: NodeID(i), IsAP: true, Floor: floor,
			X: w/2 + float64((i-1)/p.Floors)*p.SpacingM,
			Y: h / 2,
		})
	}
	r := rand.New(rand.NewSource(p.Seed))
	id := NodeID(p.APs + 1)
	placed := 0
	for floor := 0; floor < p.Floors && placed < p.Nodes; floor++ {
		for row := 0; row < rows && placed < p.Nodes; row++ {
			for col := 0; col < cols && placed < p.Nodes; col++ {
				t.Nodes = append(t.Nodes, Node{
					ID:    id,
					Floor: floor,
					X:     (float64(col) + 0.1 + 0.8*r.Float64()) * p.SpacingM,
					Y:     (float64(row) + 0.1 + 0.8*r.Float64()) * p.SpacingM,
				})
				id++
				placed++
			}
		}
	}
}

// genCampus arranges square buildings on a street grid. Each building is a
// jittered bSide x bSide device grid; streets add a gap of several device
// pitches, short enough that facing windows still link across. IDs run
// building-major (row-major over the building grid) then row-major within
// each building, and access points sit at the centres of evenly strided
// buildings.
func genCampus(t *Topology, p GenParams) {
	const perBuilding = 400 // 20 x 20 devices, a 100 m plate at default pitch
	nb := (p.Nodes + perBuilding - 1) / perBuilding
	bCols := int(math.Ceil(math.Sqrt(float64(nb))))
	bSide := int(math.Ceil(math.Sqrt(float64(perBuilding))))
	street := 2 * p.SpacingM // narrow enough for building-to-building links
	pitch := float64(bSide)*p.SpacingM + street

	origin := func(b int) (float64, float64) {
		return float64(b%bCols) * pitch, float64(b/bCols) * pitch
	}
	t.Nodes = append(t.Nodes, Node{})
	for i := 1; i <= p.APs; i++ {
		bx, by := origin((i - 1) * nb / p.APs)
		t.Nodes = append(t.Nodes, Node{
			ID: NodeID(i), IsAP: true,
			X: bx + float64(bSide)*p.SpacingM/2,
			Y: by + float64(bSide)*p.SpacingM/2,
		})
	}
	r := rand.New(rand.NewSource(p.Seed))
	id := NodeID(p.APs + 1)
	placed := 0
	for b := 0; b < nb && placed < p.Nodes; b++ {
		bx, by := origin(b)
		for row := 0; row < bSide && placed < p.Nodes; row++ {
			for col := 0; col < bSide && placed < p.Nodes; col++ {
				t.Nodes = append(t.Nodes, Node{
					ID: id,
					X:  bx + (float64(col)+0.1+0.8*r.Float64())*p.SpacingM,
					Y:  by + (float64(row)+0.1+0.8*r.Float64())*p.SpacingM,
				})
				id++
				placed++
			}
		}
	}
}

// genField scatters devices uniformly over a square sized for the target
// density, rejecting positions inside seeded rectangular obstacles
// (equipment pads, ponds). Obstacles are kept narrower than twice the keep
// radius so no single one can sever the field; the repair pass covers
// pathological compositions. IDs are assigned in Morton (Z-curve) order of
// position so contiguous ID ranges stay spatially compact.
func genField(t *Topology, p GenParams) {
	side := math.Sqrt(float64(p.Nodes)) * p.SpacingM
	r := rand.New(rand.NewSource(p.Seed))

	type rect struct{ x0, y0, x1, y1 float64 }
	nObs := p.Nodes / 500
	obstacles := make([]rect, 0, nObs)
	maxDim := 4 * p.SpacingM
	for i := 0; i < nObs; i++ {
		w := (0.5 + r.Float64()) * maxDim / 1.5
		h := (0.5 + r.Float64()) * maxDim / 1.5
		x := r.Float64() * (side - w)
		y := r.Float64() * (side - h)
		obstacles = append(obstacles, rect{x, y, x + w, y + h})
	}
	blocked := func(x, y float64) bool {
		for _, o := range obstacles {
			if x >= o.x0 && x <= o.x1 && y >= o.y0 && y <= o.y1 {
				return true
			}
		}
		return false
	}

	type placed struct {
		x, y   float64
		morton uint64
	}
	pts := make([]placed, 0, p.Nodes)
	for len(pts) < p.Nodes {
		x, y := r.Float64()*side, r.Float64()*side
		if blocked(x, y) {
			continue
		}
		pts = append(pts, placed{x, y, morton(x, y, side)})
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].morton < pts[j].morton })

	t.Nodes = append(t.Nodes, Node{})
	// APs in a tight cluster at the field centre, mirroring the testbeds'
	// co-located access points with overlapping coverage.
	for i := 1; i <= p.APs; i++ {
		ang := 2 * math.Pi * float64(i-1) / float64(p.APs)
		t.Nodes = append(t.Nodes, Node{
			ID: NodeID(i), IsAP: true,
			X: side/2 + p.SpacingM*math.Cos(ang),
			Y: side/2 + p.SpacingM*math.Sin(ang),
		})
	}
	for i, pt := range pts {
		t.Nodes = append(t.Nodes, Node{ID: NodeID(p.APs + 1 + i), X: pt.x, Y: pt.y})
	}
}

// morton interleaves the 16-bit quantised coordinates into a Z-curve key.
func morton(x, y, side float64) uint64 {
	q := func(v float64) uint64 {
		u := uint64(v / side * 65535)
		if u > 65535 {
			u = 65535
		}
		// Spread the 16 bits to even positions.
		u = (u | u<<24) & 0x000000FF000000FF
		u = (u | u<<12) & 0x000F000F000F000F
		u = (u | u<<6) & 0x0303030303030303
		u = (u | u<<3) & 0x1111111111111111
		return u
	}
	return q(x)<<1 | q(y)
}

// repairConnectivity relocates devices the gateway component cannot reach
// (over links with mean RSS at or above sensitivity) next to a reachable
// device. Relocation choices hash off the node ID and round, so the repair
// is deterministic and independent of map iteration or float ordering. A
// well-parameterised deployment needs zero rounds; the loop is the safety
// net that makes the generator's connectivity guarantee unconditional.
func repairConnectivity(t *Topology, seed int64) {
	for round := 0; round < 32; round++ {
		ok, _ := t.Connected(0)
		if ok {
			return
		}
		reach := reachable(t)
		if len(reach) == 0 {
			return // no field device reaches an AP: nothing to anchor to
		}
		moved := false
		for i := t.NumAPs + 1; i <= t.N(); i++ {
			id := NodeID(i)
			if reachContains(reach, id) {
				continue
			}
			h := detrand.Hash3(uint64(seed), uint64(id), uint64(round), 1)
			anchor := t.Nodes[reach[h%uint64(len(reach))]]
			nd := &t.Nodes[id]
			nd.Floor = anchor.Floor
			nd.X = anchor.X + (detrand.Uniform(detrand.Mix(h, 2))-0.5)*4
			nd.Y = anchor.Y + (detrand.Uniform(detrand.Mix(h, 3))-0.5)*4
			moved = true
		}
		if !moved {
			return
		}
		t.sparse = nil // positions changed: rebuild the adjacency
		t.rssCache = nil
	}
}

// reachable returns the IDs (ascending) the APs can reach over links with
// mean RSS at or above the sensitivity floor.
func reachable(t *Topology) []NodeID {
	ids := []NodeID{}
	visited := make([]bool, t.N()+1)
	queue := append([]NodeID{}, t.APs()...)
	for _, ap := range queue {
		visited[ap] = true
	}
	s := t.SparseView()
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		cols, vals, _ := s.Row(cur)
		for i, b := range cols {
			if !visited[b] && vals[i] >= phy.SensitivityDBm {
				visited[b] = true
				queue = append(queue, b)
			}
		}
	}
	for i := 1; i <= t.N(); i++ {
		if visited[i] {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

func reachContains(sorted []NodeID, id NodeID) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= id })
	return i < len(sorted) && sorted[i] == id
}

// ParseGenSpec recognises procedural topology names of the form
// gen-<kind>-<nodes>[-<seed>], e.g. "gen-plant-10000" or
// "gen-field-2000-7". It returns false for names that are not generator
// specs; a malformed spec that starts with "gen-" returns an error.
func ParseGenSpec(name string) (GenParams, bool, error) {
	if !strings.HasPrefix(name, "gen-") {
		return GenParams{}, false, nil
	}
	parts := strings.Split(name, "-")
	if len(parts) < 3 || len(parts) > 4 {
		return GenParams{}, true, fmt.Errorf("topology spec %q: want gen-<kind>-<nodes>[-<seed>]", name)
	}
	p := GenParams{Kind: GenKind(parts[1])}
	switch p.Kind {
	case GenPlant, GenCampus, GenField:
	default:
		return GenParams{}, true, fmt.Errorf("topology spec %q: unknown kind %q", name, parts[1])
	}
	n, err := strconv.Atoi(parts[2])
	if err != nil || n < 1 {
		return GenParams{}, true, fmt.Errorf("topology spec %q: bad node count %q", name, parts[2])
	}
	p.Nodes = n
	if len(parts) == 4 {
		s, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return GenParams{}, true, fmt.Errorf("topology spec %q: bad seed %q", name, parts[3])
		}
		p.Seed = s
	}
	return p, true, nil
}
