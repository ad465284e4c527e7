package target_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

// decodeTarget is one simulated assembler with the corpus parts that are
// its own: the opcodes it accepts, a foreign opcode (another target's),
// and a few operands that usually decode, which fill the slots a line is
// not varying so that the varied operand reaches the deeper checks.
type decodeTarget struct {
	tc      target.Toolchain
	ops     []string
	foreign string
	fill    []string
}

var decodeTargets = []decodeTarget{
	{alpha.New(), strings.Fields(`addl subl mull divl reml and bis xor ornot sll sra
		cmpeq cmplt cmple ldl stl lda ldil beq bne br jsr ret`), "movl",
		[]string{"$1", "$31", "255", "-1", "8($fp)", "L1", "($26)", "x"}},
	{mips.New(), strings.Fields(`add and or xor nor sllv srav addu subu lw sw li la
		mult div mflo mfhi jr beq bne blt ble bgt bge j jal`), "ldl",
		[]string{"$8", "$0", "4096", "-4($fp)", "L1", "x", "$sp", "0x10"}},
	{sparc.New(), strings.Fields(`add sub and or xor xnor sll sra ld st set cmp
		b call be bne bl ble bg bge retl nop`), "addu",
		[]string{"%o0", "%g0", "4095", "-4096", "[%fp-8]", "[%o1]", "L1", "$x"}},
	{vax.New(), strings.Fields(`addl3 subl3 mull3 divl3 bisl3 xorl3 bicl3 ashl
		movl moval addl2 subl2 mcoml mnegl cmpl pushl tstl jbr jeql jneq jlss
		jleq jgtr jgeq calls ret`), "leal",
		[]string{"r1", "$5", "$x", "-4(fp)", "4(ap)", "x", "L1", "(r2)"}},
	{x86.New(), strings.Fields(`movl addl subl imull andl orl xorl cmpl sall sarl
		negl notl idivl pushl popl leal cltd ret jmp call je jne jl jle jg jge`), "ld",
		[]string{"%eax", "$5", "$x", "-4(%ebp)", "(%esi)", "x", "L1", "%esp"}},
}

// decodeVocab is the operand vocabulary every target sees in every slot:
// all five register files and near misses, immediates with and without
// '$' at range edges and past int64, each target's memory forms, bare
// symbols, labels and garbage.
func decodeVocab() []string {
	var v []string
	for i := 0; i <= 32; i++ {
		v = append(v, fmt.Sprintf("$%d", i))
	}
	v = append(v, "$sp", "$fp")
	for _, fam := range []string{"%g", "%o", "%l"} {
		for i := 0; i <= 8; i++ {
			v = append(v, fmt.Sprintf("%s%d", fam, i))
		}
	}
	v = append(v, "%fp", "%sp")
	for i := 0; i <= 12; i++ {
		v = append(v, fmt.Sprintf("r%d", i))
	}
	v = append(v, "ap", "fp", "sp",
		"%eax", "%ebx", "%ecx", "%edx", "%esi", "%edi", "%ebp", "%esp", "%eaz")
	for _, n := range []string{"-4097", "-4096", "4095", "4096", "0", "255", "256",
		"-1", "2147483647", "0x10", "010", "9223372036854775807",
		"9223372036854775808", "-9223372036854775809", "18446744073709551617"} {
		v = append(v, n, "$"+n)
	}
	v = append(v,
		"8($fp)", "-8($sp)", "($26)", "0($31)", "4($32)", "x($fp)", "8($fp",
		"[%fp-8]", "[%fp+8]", "[%o0]", "[%sp-4097]", "[%g9]", "[%fp-x]", "%fp-8", "[%fp-8",
		"-4(fp)", "4(ap)", "(r1)", "12(r12)", "(sp)",
		"-4(%ebp)", "8(%ebp)", "(%eax)", "(%eaz)", "4(%esp",
		"L1", "main", "printf", "exit", ".mul", "_x.y", "$main", "$r5", "$.L2",
		"", "zzz", "1x", "$$", "%", "(", "[]", "a b", "-", "$-", "()")
	return v
}

// decodeLines yields the corpus for one target: each operand of
// decodeVocab in each slot of each opcode at arities 0-3 (the other slots
// filled from the target's fill list), and every fill-list combination.
func decodeLines(dt decodeTarget, vocab []string, emit func(string)) {
	ops := append(append([]string{}, dt.ops...), dt.foreign, "zzqk9")
	line := func(op string, args []string) {
		if len(args) == 0 {
			emit("\t" + op)
			return
		}
		emit("\t" + op + " " + strings.Join(args, ", "))
	}
	args := make([]string, 3)
	for _, op := range ops {
		line(op, nil)
		for n := 1; n <= 3; n++ {
			for slot := 0; slot < n; slot++ {
				for vi, v := range vocab {
					for j := 0; j < n; j++ {
						args[j] = dt.fill[(vi+3*j)%len(dt.fill)]
					}
					args[slot] = v
					line(op, args[:n])
				}
			}
			// Every combination of fill operands.
			combos := 1
			for j := 0; j < n; j++ {
				combos *= len(dt.fill)
			}
			for c := 0; c < combos; c++ {
				for j, k := 0, c; j < n; j, k = j+1, k/len(dt.fill) {
					args[j] = dt.fill[k%len(dt.fill)]
				}
				line(op, args[:n])
			}
		}
	}
}

// TestAssemblerDecodeGolden pins what each simulated assembler makes of a
// generated corpus of instruction lines: for every line, the decoded
// instructions (every field, %#v) or the error text. Regenerate with
//
//	SRCG_UPDATE_GOLDEN=1 go test ./internal/target -run TestAssemblerDecodeGolden
//
// only after an intended change to what an assembler accepts.
func TestAssemblerDecodeGolden(t *testing.T) {
	vocab := decodeVocab()
	var sb strings.Builder
	for _, dt := range decodeTargets {
		h := sha256.New()
		lines, accepted := 0, 0
		acceptedOps := map[string]bool{}
		decodeLines(dt, vocab, func(line string) {
			lines++
			u, err := dt.tc.Assemble(line)
			if err != nil {
				fmt.Fprintf(h, "%s -> error %s\n", line, err)
				return
			}
			accepted++
			acceptedOps[u.Instrs[0].Op] = true
			fmt.Fprintf(h, "%s -> %#v\n", line, u.Instrs)
		})
		// The corpus must reach every opcode's accepting path.
		for _, op := range dt.ops {
			if !acceptedOps[op] {
				t.Errorf("%s: no line of the corpus assembles %s", dt.tc.Name(), op)
			}
		}
		if len(acceptedOps) != len(dt.ops) {
			t.Errorf("%s: accepted opcodes %v, want exactly %v", dt.tc.Name(), acceptedOps, dt.ops)
		}
		fmt.Fprintf(&sb, "%s lines=%d accepted=%d %s\n", dt.tc.Name(), lines, accepted,
			hex.EncodeToString(h.Sum(nil)))
	}
	got := sb.String()
	golden := filepath.Join("testdata", "decode_digest.txt")
	if os.Getenv("SRCG_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden digest (SRCG_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("assembler decoding drifted from golden:\n--- want\n%s--- got\n%s", want, got)
	}
}
