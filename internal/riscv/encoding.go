package riscv

// Instr is a decoded instruction. Field meaning depends on the format:
// scalar register numbers live in Rd/Rs1/Rs2/Rs3; vector register numbers
// reuse the same fields (the opcode tells which file they index). For
// U/J-format Imm holds the raw immediate field (U: the 20-bit upper
// immediate, not shifted); for CSR ops Imm holds the 12-bit CSR address.
// VM is the vector mask bit: true means unmasked (the common case).
type Instr struct {
	Op           Op
	Rd, Rs1, Rs2 uint8
	Rs3          uint8
	Imm          int64
	VM           bool
}

// field names the Instr field an operand's value lives in.
type field uint8

const (
	fRd field = iota
	fRs1
	fRs2
	fRs3
	fImm
	fVM // 1 = unmasked
)

func (in Instr) get(f field) int64 {
	switch f {
	case fRd:
		return int64(in.Rd)
	case fRs1:
		return int64(in.Rs1)
	case fRs2:
		return int64(in.Rs2)
	case fRs3:
		return int64(in.Rs3)
	case fImm:
		return in.Imm
	}
	if in.VM {
		return 1
	}
	return 0
}

// with returns in with field f set to v.
func (in Instr) with(f field, v int64) Instr {
	switch f {
	case fRd:
		in.Rd = uint8(v)
	case fRs1:
		in.Rs1 = uint8(v)
	case fRs2:
		in.Rs2 = uint8(v)
	case fRs3:
		in.Rs3 = uint8(v)
	case fImm:
		in.Imm = v
	case fVM:
		in.VM = v != 0
	}
	return in
}

// seg says that width bits of an operand's value, from bit from upwards,
// sit in the instruction word from bit to upwards.
type seg struct{ from, width, to uint8 }

// kind is what an operand is: how it is written in assembly, which values
// are legal, and (for everything but a register, whose field says it) where
// its bits go in the word. DESIGN.md §2 carries this table as prose,
// generated from it.
type kind uint8

const (
	kX        kind = iota // integer register
	kF                    // floating-point register
	kV                    // vector register
	kBase                 // integer register in parentheses: a memory operand's address
	kSimm12               // I-type immediate
	kSimm12S              // S-type immediate
	kBranch13             // B-type pc-relative offset, written as its target
	kJump21               // J-type pc-relative offset, written as its target
	kUimm20               // U-type immediate, the raw 20-bit field
	kShamt6               // RV64 shift amount
	kShamt5               // 32-bit (*W) shift amount
	kCSR12                // CSR address, written by name or number
	kUimm5                // unsigned immediate in the rs1 field (csrr*i, vsetivli)
	kVSimm5               // OP-V signed immediate
	kVUimm5               // OP-V unsigned immediate (shifts, slides)
	kVType11              // vsetvli vtype, written eSEW, mLMUL[, ta|tu][, ma|mu]
	kVType10              // vsetivli vtype
	kMask                 // trailing v0.t; absent means unmasked
	numKinds
)

type kindInfo struct {
	name   string
	lo, hi int64
	step   int64 // legal values are multiples of step
	segs   []seg // nil for registers: fieldSegs has their position
}

var kinds = [numKinds]kindInfo{
	kX:        {name: "x register", hi: 31},
	kF:        {name: "f register", hi: 31},
	kV:        {name: "v register", hi: 31},
	kBase:     {name: "(x register)", hi: 31},
	kSimm12:   {name: "simm12", lo: -1 << 11, hi: 1<<11 - 1, segs: []seg{{0, 12, 20}}},
	kSimm12S:  {name: "simm12 S-split", lo: -1 << 11, hi: 1<<11 - 1, segs: []seg{{5, 7, 25}, {0, 5, 7}}},
	kBranch13: {name: "branch13", lo: -1 << 12, hi: 1<<12 - 2, step: 2, segs: []seg{{12, 1, 31}, {5, 6, 25}, {1, 4, 8}, {11, 1, 7}}},
	kJump21:   {name: "jump21", lo: -1 << 20, hi: 1<<20 - 2, step: 2, segs: []seg{{20, 1, 31}, {1, 10, 21}, {11, 1, 20}, {12, 8, 12}}},
	kUimm20:   {name: "uimm20", hi: 1<<20 - 1, segs: []seg{{0, 20, 12}}},
	kShamt6:   {name: "shamt6", hi: 63, segs: []seg{{0, 6, 20}}},
	kShamt5:   {name: "shamt5", hi: 31, segs: []seg{{0, 5, 20}}},
	kCSR12:    {name: "csr12", hi: 1<<12 - 1, segs: []seg{{0, 12, 20}}},
	kUimm5:    {name: "uimm5 (rs1 field)", hi: 31, segs: []seg{{0, 5, 15}}},
	kVSimm5:   {name: "OPVI simm5", lo: -16, hi: 15, segs: []seg{{0, 5, 15}}},
	kVUimm5:   {name: "OPVI uimm5", hi: 31, segs: []seg{{0, 5, 15}}},
	kVType11:  {name: "vtype11", hi: 1<<11 - 1, segs: []seg{{0, 11, 20}}},
	kVType10:  {name: "vtype10", hi: 1<<10 - 1, segs: []seg{{0, 10, 20}}},
	kMask:     {name: "v0.t", hi: 1, segs: []seg{{0, 1, 25}}},
}

// fieldSegs is where a register number sits, by the field that holds it.
var fieldSegs = [...][]seg{
	fRd: {{0, 5, 7}}, fRs1: {{0, 5, 15}}, fRs2: {{0, 5, 20}}, fRs3: {{0, 5, 27}},
}

// role is what executing the instruction does to a register operand.
type role uint8

const (
	read role = 1 << iota
	write
	// elem0: the instruction touches element 0 of this vector register
	// only, not its LMUL group (reduction scalars, vmv.s.x-style moves).
	elem0
	// silent: encoded, decoded and counted by RegUsage, but not part of
	// the assembly text. Two quirks of this model that isa.golden pins:
	// vmv.x.s / vfmv.f.s leave the vm bit free though RVV fixes it to 1,
	// and vmv.v.v counts its (fixed-zero) vs2 field as a source.
	silent
)

// operand is one operand of an instruction as written in assembly.
type operand struct {
	kind  kind
	field field
	role  role
}

func (o operand) segs() []seg {
	if s := kinds[o.kind].segs; s != nil {
		return s
	}
	return fieldSegs[o.field]
}

// isImm: o is a number in the text, not a register or the mask (the kinds
// are declared in that order).
func (o operand) isImm() bool { return o.kind >= kSimm12 && o.kind <= kVType10 }

// The operands the table is written in.
var (
	xd  = operand{kX, fRd, write}
	xs1 = operand{kX, fRs1, read}
	xs2 = operand{kX, fRs2, read}
	fd  = operand{kF, fRd, write}
	fs1 = operand{kF, fRs1, read}
	fs2 = operand{kF, fRs2, read}
	fs3 = operand{kF, fRs3, read}
	vd  = operand{kV, fRd, write}
	vs1 = operand{kV, fRs1, read}
	vs2 = operand{kV, fRs2, read}
	vs3 = operand{kV, fRd, read} // store data

	vdAcc = operand{kV, fRd, read | write} // multiply-accumulate destination
	vd0   = operand{kV, fRd, write | elem0}
	vs1e0 = operand{kV, fRs1, read | elem0}
	vs2e0 = operand{kV, fRs2, read | elem0}

	base = operand{kBase, fRs1, read}
	vm   = operand{kMask, fVM, 0}

	simm12   = operand{kSimm12, fImm, 0}
	simm12S  = operand{kSimm12S, fImm, 0}
	branch13 = operand{kBranch13, fImm, 0}
	jump21   = operand{kJump21, fImm, 0}
	uimm20   = operand{kUimm20, fImm, 0}
	shamt6   = operand{kShamt6, fImm, 0}
	shamt5   = operand{kShamt5, fImm, 0}
	csr12    = operand{kCSR12, fImm, 0}
	uimm5    = operand{kUimm5, fRs1, 0}
	vsimm5   = operand{kVSimm5, fImm, 0}
	vuimm5   = operand{kVUimm5, fImm, 0}
	vtype11  = operand{kVType11, fImm, 0}
	vtype10  = operand{kVType10, fImm, 0}
)

// encRow is everything the package knows about one opcode: its fixed bits
// and its operands, in the order assembly writes them. Encode, Decode,
// Disasm, Parse, RegUsage and Legal are walks over ops.
type encRow struct {
	op Op
	fixed
	ops []operand
	// alt is a second spelling Parse accepts. Only jalr rd, imm(rs1) has one:
	// asm's rewrite templates move whole operands and cannot split imm(rs1).
	alt []operand
}

// Major opcodes (bits 6:0).
const (
	opcLOAD    = 0b0000011
	opcLOADFP  = 0b0000111
	opcMISCMEM = 0b0001111
	opcOPIMM   = 0b0010011
	opcAUIPC   = 0b0010111
	opcOPIMM32 = 0b0011011
	opcSTORE   = 0b0100011
	opcSTOREFP = 0b0100111
	opcAMO     = 0b0101111
	opcOP      = 0b0110011
	opcLUI     = 0b0110111
	opcOP32    = 0b0111011
	opcMADD    = 0b1000011
	opcMSUB    = 0b1000111
	opcNMSUB   = 0b1001011
	opcNMADD   = 0b1001111
	opcOPFP    = 0b1010011
	opcOPV     = 0b1010111
	opcBRANCH  = 0b1100011
	opcJALR    = 0b1100111
	opcJAL     = 0b1101111
	opcSYSTEM  = 0b1110011
)

// fixed is a row's fixed bits over the 32-bit word.
type fixed struct {
	mask  uint32 // which bits are fixed
	match uint32 // their values
	canon uint32 // don't-care bits Encode sets (rm = dynamic)
}

const rmDynamic = 0b111 << 12

func fixOpc(opc uint32) fixed { return fixed{mask: 0x7f, match: opc} }

func fixOpcF3(opc, f3 uint32) fixed {
	return fixed{mask: 0x7f | 7<<12, match: opc | f3<<12}
}

func fixR(opc, f3, f7 uint32) fixed {
	return fixed{mask: 0x7f | 7<<12 | 0x7f<<25, match: opc | f3<<12 | f7<<25}
}

// fixFR: funct7 fixed, funct3 is the (dynamic) rounding mode.
func fixFR(f7 uint32) fixed {
	return fixed{mask: 0x7f | 0x7f<<25, match: opcOPFP | f7<<25, canon: rmDynamic}
}

// fixFU: funct7 and rs2 fixed, rm dynamic (FSQRT, FCVT).
func fixFU(f7, rs2 uint32) fixed {
	return fixed{mask: 0x7f | 0x1f<<20 | 0x7f<<25, match: opcOPFP | rs2<<20 | f7<<25, canon: rmDynamic}
}

// fixFU3: funct7, rs2 and funct3 all fixed (FMV, FCLASS).
func fixFU3(f7, rs2, f3 uint32) fixed {
	return fixed{mask: 0x7f | 7<<12 | 0x1f<<20 | 0x7f<<25, match: opcOPFP | f3<<12 | rs2<<20 | f7<<25}
}

// fixR4: fmt in bits 26:25 fixed, rm dynamic.
func fixR4(opc, fmt2 uint32) fixed {
	return fixed{mask: 0x7f | 3<<25, match: opc | fmt2<<25, canon: rmDynamic}
}

// fixSh6: OP-IMM shift with 6-bit shamt: bits 31:26 fixed.
func fixSh6(opc, f3, f6 uint32) fixed {
	return fixed{mask: 0x7f | 7<<12 | 0x3f<<26, match: opc | f3<<12 | f6<<26}
}

// fixAMO: funct5 in bits 31:27 fixed; aq/rl (26:25) left dynamic.
func fixAMO(f3, f5 uint32) fixed {
	return fixed{mask: 0x7f | 7<<12 | 0x1f<<27, match: opcAMO | f3<<12 | f5<<27}
}

// fixLR: LR has rs2 fixed to zero as well.
func fixLR(f3, f5 uint32) fixed {
	f := fixAMO(f3, f5)
	f.mask |= 0x1f << 20
	return f
}

// Vector memory ops. width is the funct3 field; mop in bits 27:26;
// nf (31:29) and mew (28) fixed to zero; vm (25) dynamic. Unit-stride
// forms also fix the rs2 field (lumop = 00000).
func fixVMem(opc, width, mop uint32) fixed {
	f := fixed{mask: 0x7f | 7<<12 | 3<<26 | 1<<28 | 7<<29, match: opc | width<<12 | mop<<26}
	if mop == mopUnit {
		f.mask |= 0x1f << 20
	}
	return f
}

// Vector arithmetic: funct6 (31:26) and funct3 fixed; vm dynamic.
func fixOPV(f6, f3 uint32) fixed {
	return fixed{mask: 0x7f | 7<<12 | 0x3f<<26, match: opcOPV | f3<<12 | f6<<26}
}

// fixOPVvs2: vs2 field fixed to zero and vm to 1 (vmv.v.*, vmv.s.x).
func fixOPVvs2(f6, f3 uint32) fixed {
	f := fixOPV(f6, f3)
	f.mask |= 0x1f<<20 | 1<<25
	f.match |= 1 << 25
	return f
}

// fixOPVvs1: vs1 field fixed (unary ops: vmv.x.s, vfmv.f.s, vfsqrt.v, vid.v).
func fixOPVvs1(f6, f3, vs1 uint32) fixed {
	f := fixOPV(f6, f3)
	f.mask |= 0x1f << 15
	f.match |= vs1 << 15
	return f
}

// RVV funct3 values.
const (
	opivv = 0b000
	opfvv = 0b001
	opmvv = 0b010
	opivi = 0b011
	opivx = 0b100
	opfvf = 0b101
	opmvx = 0b110
	opcfg = 0b111
)

// opvSrc is what funct3 says about an OP-V instruction's first source.
var opvSrc = [8]operand{
	opivv: vs1, opfvv: vs1, opmvv: vs1, opivi: vsimm5,
	opivx: xs1, opmvx: xs1, opfvf: fs1,
}

// vector load/store width encodings (funct3 of LOAD-FP/STORE-FP).
const (
	vw8  = 0b000
	vw16 = 0b101
	vw32 = 0b110
	vw64 = 0b111
)

// vector mop values.
const (
	mopUnit    = 0b00
	mopIndexU  = 0b01
	mopStrided = 0b10
)

// encTable has one row per opcode.
var encTable []encRow

type opF3 struct {
	op Op
	f3 uint32
}

func init() {
	add := func(op Op, f fixed, ops ...operand) {
		encTable = append(encTable, encRow{op: op, fixed: f, ops: ops})
	}

	// --- RV64I ---
	add(OpLUI, fixOpc(opcLUI), xd, uimm20)
	add(OpAUIPC, fixOpc(opcAUIPC), xd, uimm20)
	add(OpJAL, fixOpc(opcJAL), xd, jump21)
	add(OpJALR, fixOpcF3(opcJALR, 0), xd, xs1, simm12)
	encTable[len(encTable)-1].alt = []operand{xd, simm12, base}

	for _, b := range []opF3{{OpBEQ, 0}, {OpBNE, 1}, {OpBLT, 4}, {OpBGE, 5}, {OpBLTU, 6}, {OpBGEU, 7}} {
		add(b.op, fixOpcF3(opcBRANCH, b.f3), xs1, xs2, branch13)
	}
	for _, l := range []opF3{{OpLB, 0}, {OpLH, 1}, {OpLW, 2}, {OpLD, 3}, {OpLBU, 4}, {OpLHU, 5}, {OpLWU, 6}} {
		add(l.op, fixOpcF3(opcLOAD, l.f3), xd, simm12, base)
	}
	for _, s := range []opF3{{OpSB, 0}, {OpSH, 1}, {OpSW, 2}, {OpSD, 3}} {
		add(s.op, fixOpcF3(opcSTORE, s.f3), xs2, simm12S, base)
	}
	for _, o := range []opF3{{OpADDI, 0}, {OpSLTI, 2}, {OpSLTIU, 3}, {OpXORI, 4}, {OpORI, 6}, {OpANDI, 7}} {
		add(o.op, fixOpcF3(opcOPIMM, o.f3), xd, xs1, simm12)
	}
	add(OpSLLI, fixSh6(opcOPIMM, 1, 0b000000), xd, xs1, shamt6)
	add(OpSRLI, fixSh6(opcOPIMM, 5, 0b000000), xd, xs1, shamt6)
	add(OpSRAI, fixSh6(opcOPIMM, 5, 0b010000), xd, xs1, shamt6)

	type opF3F7 struct {
		op     Op
		f3, f7 uint32
	}
	for _, o := range []opF3F7{
		{OpADD, 0, 0}, {OpSUB, 0, 0x20}, {OpSLL, 1, 0}, {OpSLT, 2, 0},
		{OpSLTU, 3, 0}, {OpXOR, 4, 0}, {OpSRL, 5, 0}, {OpSRA, 5, 0x20},
		{OpOR, 6, 0}, {OpAND, 7, 0},
		{OpMUL, 0, 1}, {OpMULH, 1, 1}, {OpMULHSU, 2, 1}, {OpMULHU, 3, 1},
		{OpDIV, 4, 1}, {OpDIVU, 5, 1}, {OpREM, 6, 1}, {OpREMU, 7, 1},
	} {
		add(o.op, fixR(opcOP, o.f3, o.f7), xd, xs1, xs2)
	}

	add(OpADDIW, fixOpcF3(opcOPIMM32, 0), xd, xs1, simm12)
	add(OpSLLIW, fixR(opcOPIMM32, 1, 0), xd, xs1, shamt5)
	add(OpSRLIW, fixR(opcOPIMM32, 5, 0), xd, xs1, shamt5)
	add(OpSRAIW, fixR(opcOPIMM32, 5, 0x20), xd, xs1, shamt5)
	for _, o := range []opF3F7{
		{OpADDW, 0, 0}, {OpSUBW, 0, 0x20}, {OpSLLW, 1, 0},
		{OpSRLW, 5, 0}, {OpSRAW, 5, 0x20},
		{OpMULW, 0, 1}, {OpDIVW, 4, 1}, {OpDIVUW, 5, 1},
		{OpREMW, 6, 1}, {OpREMUW, 7, 1},
	} {
		add(o.op, fixR(opcOP32, o.f3, o.f7), xd, xs1, xs2)
	}

	add(OpFENCE, fixOpcF3(opcMISCMEM, 0))
	add(OpFENCEI, fixOpcF3(opcMISCMEM, 1))
	add(OpECALL, fixed{mask: 0xffffffff, match: opcSYSTEM})
	add(OpEBREAK, fixed{mask: 0xffffffff, match: opcSYSTEM | 1<<20})

	// --- Zicsr ---
	for _, c := range []opF3{{OpCSRRW, 1}, {OpCSRRS, 2}, {OpCSRRC, 3}} {
		add(c.op, fixOpcF3(opcSYSTEM, c.f3), xd, csr12, xs1)
	}
	for _, c := range []opF3{{OpCSRRWI, 5}, {OpCSRRSI, 6}, {OpCSRRCI, 7}} {
		add(c.op, fixOpcF3(opcSYSTEM, c.f3), xd, csr12, uimm5)
	}

	// --- A extension: funct3 010 is .w, 011 is .d ---
	for _, a := range []struct {
		w, d Op
		f5   uint32
	}{
		{OpAMOADDW, OpAMOADDD, 0b00000}, {OpAMOSWAPW, OpAMOSWAPD, 0b00001},
		{OpAMOXORW, OpAMOXORD, 0b00100}, {OpAMOANDW, OpAMOANDD, 0b01100},
		{OpAMOORW, OpAMOORD, 0b01000}, {OpAMOMINW, OpAMOMIND, 0b10000},
		{OpAMOMAXW, OpAMOMAXD, 0b10100}, {OpAMOMINUW, OpAMOMINUD, 0b11000},
		{OpAMOMAXUW, OpAMOMAXUD, 0b11100}, {OpSCW, OpSCD, 0b00011},
	} {
		add(a.w, fixAMO(0b010, a.f5), xd, xs2, base)
		add(a.d, fixAMO(0b011, a.f5), xd, xs2, base)
	}
	add(OpLRW, fixLR(0b010, 0b00010), xd, base)
	add(OpLRD, fixLR(0b011, 0b00010), xd, base)

	// --- F/D loads & stores ---
	add(OpFLW, fixOpcF3(opcLOADFP, 0b010), fd, simm12, base)
	add(OpFLD, fixOpcF3(opcLOADFP, 0b011), fd, simm12, base)
	add(OpFSW, fixOpcF3(opcSTOREFP, 0b010), fs2, simm12S, base)
	add(OpFSD, fixOpcF3(opcSTOREFP, 0b011), fs2, simm12S, base)

	// --- F/D arithmetic ---
	// fmt bit: .s has funct7 LSB 0, .d has LSB 1.
	for _, o := range []struct {
		op Op
		f7 uint32
	}{
		{OpFADDS, 0b0000000}, {OpFADDD, 0b0000001},
		{OpFSUBS, 0b0000100}, {OpFSUBD, 0b0000101},
		{OpFMULS, 0b0001000}, {OpFMULD, 0b0001001},
		{OpFDIVS, 0b0001100}, {OpFDIVD, 0b0001101},
	} {
		add(o.op, fixFR(o.f7), fd, fs1, fs2)
	}
	// funct7 and funct3 both fixed: sign injection and min/max write an f
	// register, compares an x register.
	for _, o := range []struct {
		op     Op
		f7, f3 uint32
		rd     operand
	}{
		{OpFSGNJS, 0b0010000, 0, fd}, {OpFSGNJNS, 0b0010000, 1, fd}, {OpFSGNJXS, 0b0010000, 2, fd},
		{OpFSGNJD, 0b0010001, 0, fd}, {OpFSGNJND, 0b0010001, 1, fd}, {OpFSGNJXD, 0b0010001, 2, fd},
		{OpFMINS, 0b0010100, 0, fd}, {OpFMAXS, 0b0010100, 1, fd},
		{OpFMIND, 0b0010101, 0, fd}, {OpFMAXD, 0b0010101, 1, fd},
		{OpFEQS, 0b1010000, 2, xd}, {OpFLTS, 0b1010000, 1, xd}, {OpFLES, 0b1010000, 0, xd},
		{OpFEQD, 0b1010001, 2, xd}, {OpFLTD, 0b1010001, 1, xd}, {OpFLED, 0b1010001, 0, xd},
	} {
		add(o.op, fixR(opcOPFP, o.f3, o.f7), o.rd, fs1, fs2)
	}
	// Unary ops; either side may be an integer register (conversions, moves,
	// fclass).
	for _, o := range []struct {
		op       Op
		f7, rs2v uint32
		rd, rs1  operand
	}{
		{OpFSQRTS, 0b0101100, 0, fd, fs1}, {OpFSQRTD, 0b0101101, 0, fd, fs1},
		{OpFCVTWS, 0b1100000, 0, xd, fs1}, {OpFCVTWUS, 0b1100000, 1, xd, fs1},
		{OpFCVTLS, 0b1100000, 2, xd, fs1}, {OpFCVTLUS, 0b1100000, 3, xd, fs1},
		{OpFCVTSW, 0b1101000, 0, fd, xs1}, {OpFCVTSWU, 0b1101000, 1, fd, xs1},
		{OpFCVTSL, 0b1101000, 2, fd, xs1}, {OpFCVTSLU, 0b1101000, 3, fd, xs1},
		{OpFCVTWD, 0b1100001, 0, xd, fs1}, {OpFCVTWUD, 0b1100001, 1, xd, fs1},
		{OpFCVTLD, 0b1100001, 2, xd, fs1}, {OpFCVTLUD, 0b1100001, 3, xd, fs1},
		{OpFCVTDW, 0b1101001, 0, fd, xs1}, {OpFCVTDWU, 0b1101001, 1, fd, xs1},
		{OpFCVTDL, 0b1101001, 2, fd, xs1}, {OpFCVTDLU, 0b1101001, 3, fd, xs1},
		{OpFCVTSD, 0b0100000, 1, fd, fs1}, {OpFCVTDS, 0b0100001, 0, fd, fs1},
	} {
		add(o.op, fixFU(o.f7, o.rs2v), o.rd, o.rs1)
	}
	add(OpFMVXW, fixFU3(0b1110000, 0, 0), xd, fs1)
	add(OpFCLASSS, fixFU3(0b1110000, 0, 1), xd, fs1)
	add(OpFMVWX, fixFU3(0b1111000, 0, 0), fd, xs1)
	add(OpFMVXD, fixFU3(0b1110001, 0, 0), xd, fs1)
	add(OpFCLASSD, fixFU3(0b1110001, 0, 1), xd, fs1)
	add(OpFMVDX, fixFU3(0b1111001, 0, 0), fd, xs1)
	for _, o := range []struct {
		s, d Op
		opc  uint32
	}{
		{OpFMADDS, OpFMADDD, opcMADD}, {OpFMSUBS, OpFMSUBD, opcMSUB},
		{OpFNMSUBS, OpFNMSUBD, opcNMSUB}, {OpFNMADDS, OpFNMADDD, opcNMADD},
	} {
		add(o.s, fixR4(o.opc, 0), fd, fs1, fs2, fs3)
		add(o.d, fixR4(o.opc, 1), fd, fs1, fs2, fs3)
	}

	// --- V configuration ---
	// vsetvli: bit31 = 0.
	add(OpVSETVLI, fixed{mask: 0x7f | 7<<12 | 1<<31, match: opcOPV | opcfg<<12}, xd, xs1, vtype11)
	// vsetivli: bits 31:30 = 11.
	add(OpVSETIVLI, fixed{mask: 0x7f | 7<<12 | 3<<30, match: opcOPV | opcfg<<12 | 3<<30}, xd, uimm5, vtype10)
	// vsetvl: funct7 = 1000000.
	add(OpVSETVL, fixR(opcOPV, opcfg, 0b1000000), xd, xs1, xs2)

	// --- V memory: one op per element width ---
	for i, width := range []uint32{vw8, vw16, vw32, vw64} {
		w := Op(i)
		add(OpVLE8+w, fixVMem(opcLOADFP, width, mopUnit), vd, base, vm)
		add(OpVSE8+w, fixVMem(opcSTOREFP, width, mopUnit), vs3, base, vm)
		add(OpVLSE8+w, fixVMem(opcLOADFP, width, mopStrided), vd, base, xs2, vm)
		add(OpVSSE8+w, fixVMem(opcSTOREFP, width, mopStrided), vs3, base, xs2, vm)
		add(OpVLUXEI8+w, fixVMem(opcLOADFP, width, mopIndexU), vd, base, vs2, vm)
		add(OpVSUXEI8+w, fixVMem(opcSTOREFP, width, mopIndexU), vs3, base, vs2, vm)
	}

	// --- V arithmetic ---
	// The common shape: vd, vs2, then the source funct3 names, then v0.t.
	// OpInvalid marks "no such form".
	addV := func(op Op, f6, f3 uint32) {
		if op != OpInvalid {
			add(op, fixOPV(f6, f3), vd, vs2, opvSrc[f3], vm)
		}
	}
	for _, o := range []struct {
		f6         uint32
		vv, vx, vi Op
	}{
		{0b000000, OpVADDVV, OpVADDVX, OpVADDVI},
		{0b000010, OpVSUBVV, OpVSUBVX, OpInvalid},
		{0b000011, OpInvalid, OpVRSUBVX, OpVRSUBVI},
		{0b001001, OpVANDVV, OpVANDVX, OpVANDVI},
		{0b001010, OpVORVV, OpVORVX, OpVORVI},
		{0b001011, OpVXORVV, OpVXORVX, OpVXORVI},
		{0b100101, OpVSLLVV, OpVSLLVX, OpInvalid},
		{0b101000, OpVSRLVV, OpVSRLVX, OpInvalid},
		{0b101001, OpVSRAVV, OpVSRAVX, OpInvalid},
		{0b000101, OpVMINVV, OpVMINVX, OpInvalid},
		{0b000111, OpVMAXVV, OpVMAXVX, OpInvalid},
		{0b011000, OpVMSEQVV, OpVMSEQVX, OpVMSEQVI},
		{0b011001, OpVMSNEVV, OpVMSNEVX, OpInvalid},
		{0b011011, OpVMSLTVV, OpVMSLTVX, OpInvalid},
		{0b011101, OpVMSLEVV, OpVMSLEVX, OpInvalid},
		{0b001111, OpInvalid, OpVSLIDEDOWNVX, OpInvalid},
	} {
		addV(o.vv, o.f6, opivv)
		addV(o.vx, o.f6, opivx)
		addV(o.vi, o.f6, opivi)
	}
	// Shifts and slides take their 5-bit immediate unsigned (RVV 1.0
	// §11.6, §16.3).
	for _, o := range []struct {
		op Op
		f6 uint32
	}{{OpVSLLVI, 0b100101}, {OpVSRLVI, 0b101000}, {OpVSRAVI, 0b101001}, {OpVSLIDEDOWNVI, 0b001111}} {
		add(o.op, fixOPV(o.f6, opivi), vd, vs2, vuimm5, vm)
	}
	addV(OpVMULVV, 0b100101, opmvv)
	addV(OpVMULVX, 0b100101, opmvx)
	addV(OpVMULHVV, 0b100111, opmvv)
	addV(OpVSLIDE1DOWNVX, 0b001111, opmvx)
	for _, o := range []struct {
		f6     uint32
		vv, vf Op
	}{
		{0b000000, OpVFADDVV, OpVFADDVF}, {0b000010, OpVFSUBVV, OpVFSUBVF},
		{0b100100, OpVFMULVV, OpVFMULVF}, {0b100000, OpVFDIVVV, OpVFDIVVF},
		{0b000100, OpVFMINVV, OpInvalid}, {0b000110, OpVFMAXVV, OpInvalid},
	} {
		addV(o.vv, o.f6, opfvv)
		addV(o.vf, o.f6, opfvf)
	}
	// Multiply-accumulate: vd is read as well as written, and assembly
	// puts the multiplicand before vs2.
	for _, o := range []struct {
		op     Op
		f6, f3 uint32
	}{
		{OpVMACCVV, 0b101101, opmvv}, {OpVMACCVX, 0b101101, opmvx},
		{OpVFMACCVV, 0b101100, opfvv}, {OpVFMACCVF, 0b101100, opfvf},
		{OpVFNMSACVV, 0b101110, opfvv},
	} {
		add(o.op, fixOPV(o.f6, o.f3), vdAcc, opvSrc[o.f3], vs2, vm)
	}
	// Reductions: vd[0] = vs1[0] op reduce(vs2).
	for _, o := range []struct {
		op     Op
		f6, f3 uint32
	}{
		{OpVREDSUMVS, 0b000000, opmvv}, {OpVREDMAXVS, 0b000111, opmvv},
		{OpVFREDUSUMVS, 0b000001, opfvv}, {OpVFREDOSUMVS, 0b000011, opfvv},
	} {
		add(o.op, fixOPV(o.f6, o.f3), vd0, vs2, vs1e0, vm)
	}
	// vmv.v.* / vfmv.v.f: funct6 010111, vs2 fixed 0, vm fixed 1.
	silentVS2 := vs2
	silentVS2.role |= silent
	add(OpVMVVV, fixOPVvs2(0b010111, opivv), vd, vs1, silentVS2)
	add(OpVMVVX, fixOPVvs2(0b010111, opivx), vd, xs1)
	add(OpVMVVI, fixOPVvs2(0b010111, opivi), vd, vsimm5)
	add(OpVFMVVF, fixOPVvs2(0b010111, opfvf), vd, fs1)
	// vmv.s.x / vfmv.s.f: funct6 010000 (VRXUNARY0 / VRFUNARY0).
	add(OpVMVSX, fixOPVvs2(0b010000, opmvx), vd0, xs1)
	add(OpVFMVSF, fixOPVvs2(0b010000, opfvf), vd0, fs1)
	// vmv.x.s / vfmv.f.s: funct6 010000 (VWXUNARY0 / VWFUNARY0), vs1 = 0.
	silentVM := vm
	silentVM.role |= silent
	add(OpVMVXS, fixOPVvs1(0b010000, opmvv, 0), xd, vs2e0, silentVM)
	add(OpVFMVFS, fixOPVvs1(0b010000, opfvv, 0), fd, vs2e0, silentVM)
	// vfsqrt.v: funct6 010011 (VFUNARY1), vs1 = 00000.
	add(OpVFSQRTV, fixOPVvs1(0b010011, opfvv, 0), vd, vs2, vm)
	// vid.v: funct6 010100 (VMUNARY0), vs1 = 10001, vs2 = 00000.
	vid := fixOPVvs1(0b010100, opmvv, 0b10001)
	vid.mask |= 0x1f << 20
	add(OpVIDV, vid, vd, vm)

	for i := range encTable {
		r := &encTable[i]
		if encodeRows[r.op] != nil {
			panic("riscv: duplicate encoding row for " + r.op.String())
		}
		encodeRows[r.op] = r
		opc := r.match & 0x7f
		decodeBuckets[opc] = append(decodeBuckets[opc], *r)
	}
}

// decode index: rows bucketed by major opcode.
var decodeBuckets [128][]encRow

// encode index: row per Op.
var encodeRows [opMax]*encRow

// rowOf returns op's table row, or nil for an op the table does not have.
func rowOf(op Op) *encRow {
	if int(op) >= len(encodeRows) {
		return nil
	}
	return encodeRows[op]
}
