package bench

import (
	"fmt"
	"strings"
)

// The corpus generator synthesizes an MC++ application from a Spec. The
// emitted program has a known ground truth: the generator decides exactly
// which members are dead (write-only, read-only-from-unreachable-code, or
// passed-only-to-free) and which are live, so tests can cross-check the
// analysis against the generator's intent.
//
// Program shape:
//
//   - class Node: polymorphic base with a live `tag` member, a pure
//     virtual use(), and a virtual destructor;
//   - "hot" classes (a dead-heavy group and a clean group) allocated in
//     bulk by the driver's loop, with the group mix solved so that dead
//     bytes approach Spec.DynDeadPercent of total object bytes;
//   - "cold" used classes allocated exactly once;
//   - unused classes that are never instantiated (library surplus);
//   - a driver that retains every RetainMod-th object in an arena
//     (RetainMod == 1 retains everything: high water mark == total space).

// rng is a deterministic xorshift64 generator.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// genClass is the generator's model of one emitted class.
type genClass struct {
	name      string
	liveInts  int
	deadWrite int  // write-only dead ints
	deadAux   int  // dead ints read only by a never-called method
	hasBuf    bool // dead void* passed only to free() in the dtor
	hot       bool
	deadHeavy bool
	used      bool
	ghost     bool // single allocation guarded by a never-taken branch
	plain     bool // emitted as a standalone struct (no Node base, no vptr)
}

func (c *genClass) members() int {
	n := c.liveInts + c.deadWrite + c.deadAux
	if c.hasBuf {
		n++
	}
	return n
}

func (c *genClass) deadMembers() int {
	n := c.deadWrite + c.deadAux
	if c.hasBuf {
		n++
	}
	return n
}

// size computes the complete-object size under the layout model. Node
// subclasses: Node's non-virtual region is 16 bytes (8-byte vptr + 4-byte
// tag + padding), the derived ints follow, and an optional trailing
// pointer is 8-aligned. Plain structs: just the ints at 4-byte alignment.
func (c *genClass) size() int {
	ints := c.liveInts + c.deadWrite + c.deadAux
	if c.plain {
		off := 4 * ints
		if c.hasBuf {
			off = alignUp8(off) + 8
			return alignUp8(off)
		}
		if off < 1 {
			off = 1
		}
		return off
	}
	off := 16 + 4*ints
	if c.hasBuf {
		off = alignUp8(off) + 8
	}
	return alignUp8(off)
}

func (c *genClass) deadBytes() int {
	n := 4 * (c.deadWrite + c.deadAux)
	if c.hasBuf {
		n += 8
	}
	return n
}

func alignUp8(n int) int { return (n + 7) / 8 * 8 }

// Generate synthesizes the MC++ source for spec. The second return value
// is the generator's ground truth: the exact set of dead members (by
// qualified name) it planted.
func Generate(spec Spec) (string, map[string]bool) {
	r := &rng{s: spec.Seed*2654435761 + 1}

	// ---- plan the classes -------------------------------------------------
	u := spec.UsedClasses
	if u < 8 {
		u = 8
	}
	hd := spec.DeadHeavyClasses
	if hd < 1 {
		hd = 1
	}
	if hd > 3 {
		hd = 3 // hot dead-heavy classes; further dead-heavy classes are cold
	}
	hc := 3 // hot clean classes
	if u < hd+hc+2 {
		hc = 1
	}
	cold := u - hd - hc

	var classes []*genClass
	for i := 0; i < hd; i++ {
		classes = append(classes, &genClass{
			name: fmt.Sprintf("Hd%d", i), liveInts: 2, hot: true, deadHeavy: true, used: true,
			hasBuf: spec.DeleteFlavor && i == 0,
		})
	}
	for i := 0; i < hc; i++ {
		classes = append(classes, &genClass{
			name: fmt.Sprintf("Hc%d", i), liveInts: 5, hot: true, used: true,
		})
	}
	for i := 0; i < cold; i++ {
		classes = append(classes, &genClass{
			name: fmt.Sprintf("Cold%d", i), liveInts: 2 + r.intn(5), used: true,
			deadHeavy: i < spec.DeadHeavyClasses-hd,
			plain:     float64(i) < spec.StructFraction*float64(cold),
		})
	}

	// Distribute the member budget: adjust cold classes until the total
	// member count (including Node's tag) matches the spec.
	total := func() int {
		n := 1 // Node::tag
		for _, c := range classes {
			if c.used {
				n += c.members()
			}
		}
		return n
	}
	coldClasses := classes[hd+hc:]
	for total() < spec.Members && len(coldClasses) > 0 {
		coldClasses[r.intn(len(coldClasses))].liveInts++
	}
	// Shrink toward the budget; stop when every cold class is at its
	// minimum (a spec below the achievable minimum keeps the floor shape).
	anyReducible := func() bool {
		for _, c := range coldClasses {
			if c.liveInts > 1 {
				return true
			}
		}
		return false
	}
	for total() > spec.Members && len(coldClasses) > 0 {
		c := coldClasses[r.intn(len(coldClasses))]
		if c.liveInts > 1 {
			c.liveInts--
		} else if !anyReducible() {
			break
		}
	}

	// Plant the dead members: convert live ints into dead ones, dead-heavy
	// hot classes first (up to 4 each), then dead-heavy cold classes, then
	// any cold class. Alternate write-only and unreachable-read flavours.
	deadTarget := int(spec.DeadPercent/100*float64(total()) + 0.5)
	planted := 0
	for _, c := range classes {
		if c.hasBuf {
			planted++ // the free()-only buffer is dead
		}
	}
	plant := func(c *genClass, maxPerClass int) {
		for planted < deadTarget && c.deadWrite+c.deadAux < maxPerClass {
			// Grow the class if it has no live ints left to convert
			// beyond its minimum.
			if c.liveInts <= 1 {
				break
			}
			c.liveInts--
			if (c.deadWrite+c.deadAux)%2 == 0 {
				c.deadWrite++
			} else {
				c.deadAux++
			}
			planted++
		}
	}
	for _, c := range classes[:hd] {
		plant(c, 4)
	}
	for _, c := range coldClasses {
		if c.deadHeavy {
			plant(c, 6)
		}
	}
	for _, c := range coldClasses {
		plant(c, 8)
	}
	// Hot dead-heavy classes may need more dead bytes than conversion
	// allowed; top up by adding fresh dead ints (grows the member count
	// slightly, recorded faithfully in Table 1 output).
	for _, c := range classes[:hd] {
		for planted < deadTarget && c.deadWrite+c.deadAux < 4 {
			c.deadWrite++
			planted++
		}
	}

	// Ghost-flag dead-heavy cold classes: statically used, never
	// instantiated at run time.
	if spec.GhostFraction > 0 {
		var deadHeavyCold []*genClass
		for _, c := range coldClasses {
			if c.deadMembers() > 0 {
				deadHeavyCold = append(deadHeavyCold, c)
			}
		}
		ghosts := int(spec.GhostFraction*float64(len(deadHeavyCold)) + 0.5)
		for i := 0; i < ghosts && i < len(deadHeavyCold); i++ {
			deadHeavyCold[i].ghost = true
		}
	}

	// ---- solve the allocation mix -----------------------------------------
	hotDead := classes[:hd]
	hotClean := classes[hd : hd+hc]
	avg := func(g []*genClass, f func(*genClass) int) float64 {
		if len(g) == 0 {
			return 0
		}
		s := 0
		for _, c := range g {
			s += f(c)
		}
		return float64(s) / float64(len(g))
	}
	sD := avg(hotDead, (*genClass).size)
	dD := avg(hotDead, (*genClass).deadBytes)
	sC := avg(hotClean, (*genClass).size)
	coldBytes, coldDead := 0.0, 0.0
	for _, c := range classes {
		if c.ghost {
			continue // never allocated at run time
		}
		coldBytes += float64(c.size())
		coldDead += float64(c.deadBytes())
	}
	n := spec.Allocations
	bestND, bestErr := 0, 1e18
	for nd := 0; nd <= n; nd += maxIntG(1, n/4000) {
		tot := coldBytes + float64(nd)*sD + float64(n-nd)*sC
		dead := coldDead + float64(nd)*dD
		got := 100 * dead / tot
		if e := absF(got - spec.DynDeadPercent); e < bestErr {
			bestErr = e
			bestND = nd
		}
	}
	// The driver allocates exactly bestND dead-heavy objects (the first
	// bestND hot-loop iterations), then clean ones.
	threshold := bestND

	// ---- emit the program --------------------------------------------------
	var b strings.Builder
	ground := map[string]bool{}
	fmt.Fprintf(&b, "// %s.mcc — generated benchmark calibrated to the paper's %q.\n", spec.Name, spec.Name)
	fmt.Fprintf(&b, "// %s\n\n", spec.Description)
	b.WriteString("int sink = 0;\n\n")
	b.WriteString("class Node {\npublic:\n\tint tag;\n\tNode(int t) { tag = t; }\n\tvirtual int use() = 0;\n\tvirtual ~Node() {}\n};\n\n")

	for _, c := range classes {
		emitClass(&b, c, ground)
	}

	// Unused classes: never instantiated; varied member types exercise the
	// frontend but are excluded from the paper's counts.
	unused := spec.Classes - u - 1
	for i := 0; i < unused; i++ {
		emitUnusedClass(&b, i, r)
	}

	emitDriver(&b, spec, classes, hd, hc, threshold)
	return b.String(), ground
}

func emitClass(b *strings.Builder, c *genClass, ground map[string]bool) {
	if c.plain {
		fmt.Fprintf(b, "struct %s {\n", c.name)
	} else {
		fmt.Fprintf(b, "class %s : public Node {\npublic:\n", c.name)
	}
	for i := 0; i < c.liveInts; i++ {
		fmt.Fprintf(b, "\tint m%d;\n", i)
	}
	for i := 0; i < c.deadWrite; i++ {
		fmt.Fprintf(b, "\tint dw%d; // dead: write-only\n", i)
		ground[c.name+"::"+fmt.Sprintf("dw%d", i)] = true
	}
	for i := 0; i < c.deadAux; i++ {
		fmt.Fprintf(b, "\tint du%d; // dead: read only from unreachable code\n", i)
		ground[c.name+"::"+fmt.Sprintf("du%d", i)] = true
	}
	if c.hasBuf {
		b.WriteString("\tvoid* buf; // dead: passed only to free()\n")
		ground[c.name+"::buf"] = true
	}

	// Constructor initializes every member (the paper's motivating case:
	// initialization alone must not make a member live).
	if c.plain {
		fmt.Fprintf(b, "\t%s(int t) {\n", c.name)
	} else {
		fmt.Fprintf(b, "\t%s(int t) : Node(t) {\n", c.name)
	}
	for i := 0; i < c.liveInts; i++ {
		fmt.Fprintf(b, "\t\tm%d = t + %d;\n", i, i)
	}
	for i := 0; i < c.deadWrite; i++ {
		fmt.Fprintf(b, "\t\tdw%d = t * %d;\n", i, i+2)
	}
	for i := 0; i < c.deadAux; i++ {
		fmt.Fprintf(b, "\t\tdu%d = t - %d;\n", i, i+1)
	}
	if c.hasBuf {
		b.WriteString("\t\tbuf = malloc(16);\n")
	}
	b.WriteString("\t}\n")

	if c.hasBuf {
		if c.plain {
			fmt.Fprintf(b, "\t~%s() { free(buf); }\n", c.name)
		} else {
			fmt.Fprintf(b, "\tvirtual ~%s() { free(buf); }\n", c.name)
		}
	}

	if c.plain {
		b.WriteString("\tint use() {\n\t\treturn 0")
	} else {
		b.WriteString("\tvirtual int use() {\n\t\treturn tag")
	}
	for i := 0; i < c.liveInts; i++ {
		fmt.Fprintf(b, " + m%d", i)
	}
	b.WriteString(";\n\t}\n")

	if c.deadAux > 0 {
		// Never called: unused library functionality.
		b.WriteString("\tint auxStats() {\n\t\treturn 0")
		for i := 0; i < c.deadAux; i++ {
			fmt.Fprintf(b, " + du%d", i)
		}
		b.WriteString(";\n\t}\n")
	}
	b.WriteString("};\n\n")
}

func emitUnusedClass(b *strings.Builder, i int, r *rng) {
	name := fmt.Sprintf("Lib%d", i)
	fmt.Fprintf(b, "class %s {\npublic:\n", name)
	kinds := 2 + r.intn(4)
	for k := 0; k < kinds; k++ {
		switch r.intn(4) {
		case 0:
			fmt.Fprintf(b, "\tint f%d;\n", k)
		case 1:
			fmt.Fprintf(b, "\tdouble g%d;\n", k)
		case 2:
			fmt.Fprintf(b, "\tchar c%d;\n", k)
		default:
			fmt.Fprintf(b, "\tint a%d[4];\n", k)
		}
	}
	fmt.Fprintf(b, "\t%s() {}\n", name)
	b.WriteString("};\n\n")
}

func emitDriver(b *strings.Builder, spec Spec, classes []*genClass, hd, hc, threshold int) {
	cap := len(classes) + spec.Allocations/maxIntG(1, spec.RetainMod) + 8
	b.WriteString("int main() {\n")
	fmt.Fprintf(b, "\tNode** arena = new Node*[%d];\n", cap)
	b.WriteString("\tint retained = 0;\n")
	b.WriteString("\tNode* c = nullptr;\n")

	// Cold singles: every used class is constructed at least once. Ghost
	// classes are constructed only on a dynamically-never-taken branch:
	// statically used, dynamically absent.
	b.WriteString("\t// every used class is instantiated once\n")
	b.WriteString("\tint ghostGate = clock() < 0 ? 1 : 0;\n")
	for i, c := range classes {
		switch {
		case c.plain && c.ghost:
			fmt.Fprintf(b, "\tif (ghostGate == 1) { %s sv%d(%d); sink = sink + sv%d.use(); }\n", c.name, i, i+1, i)
		case c.plain:
			// Main-scope stack value: lives to the end of execution, so
			// arena-style benchmarks keep HWM == total object space.
			fmt.Fprintf(b, "\t%s sv%d(%d); sink = sink + sv%d.use();\n", c.name, i, i+1, i)
		case c.ghost:
			fmt.Fprintf(b, "\tif (ghostGate == 1) { c = new %s(%d); sink = sink + c->use() + c->tag; arena[retained] = c; retained = retained + 1; }\n", c.name, i+1)
		default:
			fmt.Fprintf(b, "\tc = new %s(%d); sink = sink + c->use() + c->tag; arena[retained] = c; retained = retained + 1;\n", c.name, i+1)
		}
	}

	// Hot loop.
	fmt.Fprintf(b, "\tfor (int i = 0; i < %d; i++) {\n", spec.Allocations)
	b.WriteString("\t\tNode* o = nullptr;\n")
	fmt.Fprintf(b, "\t\tif (i < %d) {\n", threshold)
	emitGroupSwitch(b, classes[:hd], "\t\t\t")
	b.WriteString("\t\t} else {\n")
	emitGroupSwitch(b, classes[hd:hd+hc], "\t\t\t")
	b.WriteString("\t\t}\n")
	b.WriteString("\t\tsink = sink + o->use();\n")
	fmt.Fprintf(b, "\t\tif (i %% %d == 0 && retained < %d) {\n", maxIntG(1, spec.RetainMod), cap)
	b.WriteString("\t\t\tarena[retained] = o; retained = retained + 1;\n")
	b.WriteString("\t\t} else {\n\t\t\tdelete o;\n\t\t}\n")
	b.WriteString("\t}\n")

	// Drain the arena at the very end (arena style: the high water mark
	// equals total object space when RetainMod == 1).
	b.WriteString("\tfor (int j = 0; j < retained; j++) { delete arena[j]; }\n")
	b.WriteString("\tdelete[] arena;\n")
	b.WriteString("\tprint(\"sink=\"); print(sink); println();\n")
	b.WriteString("\treturn 0;\n}\n")
}

func emitGroupSwitch(b *strings.Builder, group []*genClass, indent string) {
	if len(group) == 1 {
		fmt.Fprintf(b, "%so = new %s(i);\n", indent, group[0].name)
		return
	}
	fmt.Fprintf(b, "%sswitch (i %% %d) {\n", indent, len(group))
	for i, c := range group {
		if i == len(group)-1 {
			fmt.Fprintf(b, "%sdefault: o = new %s(i); break;\n", indent, c.name)
		} else {
			fmt.Fprintf(b, "%scase %d: o = new %s(i); break;\n", indent, i, c.name)
		}
	}
	fmt.Fprintf(b, "%s}\n", indent)
}

func maxIntG(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func absF(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
