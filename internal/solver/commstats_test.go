package solver

import (
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
)

// The executed fan-in protocol must send exactly the messages the static
// schedule implies: one AUB per (source processor, destination task) pair,
// one diagonal-block transfer per remote BDIV consumer group, one panel
// transfer per remote BMOD consumer group. Every multi-processor schedule
// here splits work across processors, so traffic (with payload) must show.
func TestExecutedMessagesMatchPrediction(t *testing.T) {
	for _, name := range []string{"QUER", "THREAD"} {
		p, err := gen.Generate(name, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		for _, P := range []int{2, 4, 8} {
			an := analyzeFor(t, p.A, P)
			_, st, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, P, err)
			}
			if st.Messages != st.PredictedMessages {
				t.Fatalf("%s P=%d: sent %d messages, schedule predicts %d",
					name, P, st.Messages, st.PredictedMessages)
			}
			if st.Messages == 0 || st.Bytes == 0 {
				t.Fatalf("%s P=%d: no message traffic (%d messages, %d bytes)", name, P, st.Messages, st.Bytes)
			}
		}
	}
}

// Fan-both spilling may only add messages, never lose any.
func TestFanBothSendsMoreMessages(t *testing.T) {
	p, err := gen.Generate("QUER", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	an := analyzeFor(t, p.A, 4)
	_, pure, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, both, err := FactorizeParStats(an.A, an.Sched, ParOptions{MaxAUBBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if both.Messages < pure.Messages {
		t.Fatalf("fan-both sent fewer messages (%d) than fan-in (%d)", both.Messages, pure.Messages)
	}
	if pure.Messages != pure.PredictedMessages {
		t.Fatalf("fan-in count %d != prediction %d", pure.Messages, pure.PredictedMessages)
	}
}

func TestSingleProcNoMessages(t *testing.T) {
	a := laplacian2D(10, 10)
	an := analyzeFor(t, a, 1)
	_, st, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages != 0 || st.Bytes != 0 {
		t.Fatalf("sequential run sent %d messages", st.Messages)
	}
	_ = gen.Names // keep the import used if the test shrinks
}
