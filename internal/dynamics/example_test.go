package dynamics_test

import (
	"fmt"
	"time"

	"fpdyn/internal/diff"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/useragent"
)

// ExampleClassifier_Classify labels one piece of dynamics with its
// causes, the paper's Table 2 taxonomy.
func ExampleClassifier_Classify() {
	base := func() *fingerprint.Record {
		ua := useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(63, 0, 3239, 84),
			OS: useragent.Windows, OSVersion: useragent.V(10)}
		return &fingerprint.Record{
			Time:   time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC),
			Cookie: "ck",
			FP: &fingerprint.Fingerprint{
				UserAgent: ua.String(), CookieEnabled: true, LocalStorage: true,
				TimezoneOffset: 60, ScreenResolution: "1920x1080", PixelRatio: "1",
				ConsLanguage: true, ConsResolution: true, ConsOS: true, ConsBrowser: true,
			},
		}
	}
	from := base()
	to := base()
	// The user traveled (timezone moved) and the browser updated.
	to.FP.TimezoneOffset = -300
	ua := useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(64, 0, 3282, 140),
		OS: useragent.Windows, OSVersion: useragent.V(10)}
	to.FP.UserAgent = ua.String()

	var cl dynamics.Classifier
	c := cl.Classify(&dynamics.Dynamics{
		From: from, To: to, Delta: diff.Diff(from.FP, to.FP),
	})
	for _, cause := range c.Causes {
		fmt.Println(cause)
	}
	fmt.Println("composite:", len(c.Categories()) > 1)
	// Output:
	// browser update
	// change timezone
	// composite: true
}
