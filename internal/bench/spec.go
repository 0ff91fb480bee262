package bench

// Spec calibrates one synthesized benchmark to the shape of a paper
// benchmark: class/member counts from Table 1, the static dead-member
// percentage from Figure 3, and the dynamic behaviour (allocation volume,
// retention pattern, dead-space percentage) from Table 2 / Figure 4.
//
// The generator places dead members into designated "dead-heavy" classes
// and solves the allocation mix so that the fraction of object bytes
// occupied by dead members approaches DynDeadPercent; RetainMod controls
// the high-water-mark shape (1 = arena: nothing freed before the end, so
// HWM equals total object space, as the paper observed for sched).
type Spec struct {
	Name        string
	Description string

	// Static shape (paper Table 1 / Figure 3).
	PaperLOC    int     // paper's lines-of-code count (reference only)
	Classes     int     // total classes, including never-instantiated ones
	UsedClasses int     // classes the driver instantiates (plus the Node base)
	Members     int     // total data members across used classes (approx.)
	DeadPercent float64 // target % of members in used classes that are dead

	// Dynamic shape (paper Table 2 / Figure 4).
	Allocations    int     // hot-loop allocations performed by the driver
	DynDeadPercent float64 // target % of object bytes occupied by dead members
	RetainMod      int     // retain every RetainMod-th hot object (1 = all)

	// Flavour.
	DeadHeavyClasses int  // used classes that concentrate the dead members
	DeleteFlavor     bool // include malloc-in-ctor/free-in-dtor dead pointers

	// GhostFraction is the fraction of dead-heavy cold classes whose
	// single allocation sits in a dynamically-never-taken branch: they
	// count as used classes (a constructor call occurs in the program)
	// but contribute no object bytes — the paper's explanation for
	// benchmarks whose many dead members occupy little run-time space
	// ("classes with dead data members are instantiated infrequently").
	GhostFraction float64

	// StructFraction is the fraction of cold used classes emitted as
	// plain structs outside the Node hierarchy (no base, no virtuals),
	// instantiated as stack values. Models the paper's description of
	// sched: "not written in a very object-oriented style ... most of
	// the classes are structs".
	StructFraction float64

	// ComputeRounds, when positive, adds an integer kernel to the
	// driver: every hot-loop iteration runs this many rounds of scalar
	// arithmetic over locals. It scales a benchmark's dynamic size
	// (executed statements) without changing its heap shape, which is
	// how BENCH_vm.json's compute-kernel programs were made 10–50×
	// bigger than the paper-calibrated ones.
	ComputeRounds int

	Seed uint64 // deterministic generation seed
}

// specs calibrates the nine synthesized benchmarks. richards and deltablue
// are hand-written (zero dead members) and not generated.
//
// DeadPercent values are chosen so the nine non-trivial benchmarks average
// 12.5% with a 27.3% maximum and 3.0% minimum, as the paper reports; the
// library-style benchmarks (taldict, simulate, hotwire) take the highest
// values, matching the paper's observation that unused library
// functionality produces the most dead members.
var specs = []Spec{
	{
		Name:        "jikes",
		Description: "Java source-to-bytecode compiler",
		PaperLOC:    58296, Classes: 268, UsedClasses: 190, Members: 1052, DeadPercent: 11.9,
		Allocations: 20000, DynDeadPercent: 6.0, RetainMod: 3,
		DeadHeavyClasses: 22, DeleteFlavor: true, Seed: 0x6a696b6573,
	},
	{
		Name:        "idl",
		Description: "SOM IDL compiler (heavy virtual inheritance)",
		PaperLOC:    30408, Classes: 150, UsedClasses: 105, Members: 600, DeadPercent: 6.1,
		Allocations: 8000, DynDeadPercent: 2.2, RetainMod: 1,
		DeadHeavyClasses: 9, DeleteFlavor: false, Seed: 0x69646c,
	},
	{
		Name:        "npic",
		Description: "network protocol stack simulator",
		PaperLOC:    11670, Classes: 60, UsedClasses: 48, Members: 220, DeadPercent: 5.0,
		Allocations: 5000, DynDeadPercent: 4.9, RetainMod: 5,
		DeadHeavyClasses: 4, DeleteFlavor: false, Seed: 0x6e706963,
	},
	{
		Name:        "lcom",
		Description: "compiler for the L hardware description language",
		PaperLOC:    17278, Classes: 72, UsedClasses: 58, Members: 300, DeadPercent: 9.8,
		Allocations: 15000, DynDeadPercent: 10.6, RetainMod: 2,
		DeadHeavyClasses: 8, DeleteFlavor: true, Seed: 0x6c636f6d,
	},
	{
		Name:        "taldict",
		Description: "dictionary application on a general collection library",
		PaperLOC:    3010, Classes: 55, UsedClasses: 27, Members: 190, DeadPercent: 27.3,
		Allocations: 120, DynDeadPercent: 0.5, RetainMod: 1,
		DeadHeavyClasses: 14, DeleteFlavor: false, GhostFraction: 0.9, Seed: 0x74616c,
	},
	{
		Name:        "ixx",
		Description: "IDL parser generating C++ stubs",
		PaperLOC:    11157, Classes: 90, UsedClasses: 63, Members: 420, DeadPercent: 7.7,
		Allocations: 9000, DynDeadPercent: 5.4, RetainMod: 2,
		DeadHeavyClasses: 8, DeleteFlavor: false, Seed: 0x697878,
	},
	{
		Name:        "simulate",
		Description: "discrete-event simulation on an exploration library",
		PaperLOC:    6672, Classes: 45, UsedClasses: 24, Members: 170, DeadPercent: 23.1,
		Allocations: 3000, DynDeadPercent: 0.1, RetainMod: 6,
		DeadHeavyClasses: 10, DeleteFlavor: false, Seed: 0x73696d,
	},
	{
		Name:        "sched",
		Description: "RS/6000 instruction scheduler (struct-heavy, little inheritance)",
		PaperLOC:    5712, Classes: 24, UsedClasses: 20, Members: 80, DeadPercent: 3.0,
		Allocations: 30000, DynDeadPercent: 11.6, RetainMod: 1,
		DeadHeavyClasses: 1, DeleteFlavor: false, StructFraction: 0.8, Seed: 0x736368,
	},
	{
		Name:        "hotwire",
		Description: "scriptable graphical presentation builder",
		PaperLOC:    5355, Classes: 37, UsedClasses: 21, Members: 166, DeadPercent: 18.6,
		Allocations: 200, DynDeadPercent: 2.6, RetainMod: 1,
		DeadHeavyClasses: 8, DeleteFlavor: false, GhostFraction: 0.72, Seed: 0x686f74,
	},
}
